import json
import math
import re

import numpy as np
import pytest

from vancal import cli
from vancal.calibration import (
    CLOSEDNESS_MIN_ORDER,
    COMASS_GRID_TOL,
    angle_budget,
    verify_pair_calibration,
)
from vancal.cli import main, parse_config, parse_matrix
from vancal.coords import WedgeCoordinates
from vancal.currents import calibration_inequality_check, square_mesh, write_mesh
from vancal.cutoff import CutoffParams, make_params
from vancal.exterior import AlternatingTensor, constant_form_field
from vancal.fermi import sphere_patch, verify_first_order
from vancal.reports import Check, VerificationReport
from vancal.retraction import RetractionMap, verify_area_nonincreasing
from vancal.subspaces import coordinate_plane, intersect_and_split, rotated_plane_pair


PAIR_CONFIG = """\
# orthogonal 3-planes in R^6
n = 3
a = 2.5
grid = 5
seed = 0
region_low = -1.2
region_high = 1.2
plane1 = 1 0 0 0 0 0 ; 0 1 0 0 0 0 ; 0 0 1 0 0 0
plane2 = 0 0 0 1 0 0 ; 0 0 0 0 1 0 ; 0 0 0 0 0 1
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def report_of(out):
    return json.loads(out)


def strip_timing(out):
    return re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', out)


# -- report object ---------------------------------------------------------------


def test_report_roundtrip_lossless():
    report = VerificationReport(
        command="demo",
        parameters={"n": 3, "a": 2.5, "label": "x"},
        checks=[
            Check("alpha", True, measured=0.123456789012345, threshold=1.0,
                  tolerance=1e-9, detail="d"),
            Check("beta", False, measured=None),
        ],
        provenance={"seed": 7},
        wall_time_ms=12,
    )
    assert json.loads(report.to_json()) == report.to_dict()


def test_report_json_is_strict(capsys):
    # a NaN input reaches the report as null, never as a bare NaN token
    code, out = run_cli(capsys, "cutoff", "--n", "3", "--a", "nan")
    assert code == 2

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    report = json.loads(out, parse_constant=reject)
    assert report["parameters"]["a"] is None
    assert report["checks"][0]["measured"] is None


def test_report_overall_pass_semantics():
    report = VerificationReport("demo", {}, [Check("a", True), Check("b", True)])
    assert report.overall_pass
    report.checks.append(Check("c", False))
    assert not report.overall_pass


# -- config parsing ----------------------------------------------------------------


def test_parse_config_and_matrix(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("a = 1.5  # comment\n\n# full line comment\nkey = v\n")
    cfg = parse_config(path)
    assert cfg == {"a": "1.5", "key": "v"}
    mat = parse_matrix("1 0 ; 0 1")
    assert np.array_equal(mat, np.eye(2))


def test_parse_config_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("just some words\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_config(path)


# -- commands --------------------------------------------------------------------


def test_cutoff_command_pass(capsys):
    code, out = run_cli(capsys, "cutoff", "--n", "3", "--a", "2.5")
    assert code == 0
    report = report_of(out)
    assert report["overall_pass"]
    assert report["parameters"]["kappa"] == pytest.approx(0.96)
    names = [c["name"] for c in report["checks"]]
    assert "grid_min_matches_kappa" in names


def test_cutoff_command_resolves_the_minimum_on_a_coarse_grid(capsys):
    # at 500 grid points the grid value of the minimum misses kappa by 1e-6;
    # the refined minimum matches it
    code, out = run_cli(capsys, "cutoff", "--n", "5", "--a", "3.8015", "--grid", "500")
    assert code == 0
    check = [c for c in report_of(out)["checks"] if c["name"] == "grid_min_matches_kappa"][0]
    assert check["passed"]


def test_cutoff_command_inadmissible(capsys):
    code, out = run_cli(capsys, "cutoff", "--n", "3", "--a", "3.5")
    assert code == 2
    report = report_of(out)
    assert not report["overall_pass"]
    assert "n(n-2) = 3" in report["checks"][0]["detail"]


def test_cutoff_sweep_csv(capsys):
    code, out = run_cli(capsys, "cutoff", "--n", "4", "--sweep", "20", "--grid", "500")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,c,theta,delta,kappa,status"
    assert len(lines) == 21
    assert all(line.endswith("pass") for line in lines[1:])


def test_threshold_table(capsys):
    code, out = run_cli(capsys, "threshold", "--n-min", "3", "--n-max", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(a > b for a, b in zip(values, values[1:]))
    n4 = lines[2].split(",")
    assert float(n4[1]) == pytest.approx(math.pi / 3, abs=1e-12)
    assert n4[2] == "pi/3"


def test_threshold_rejects_small_n(capsys):
    code = main(["threshold", "--n-min", "2", "--n-max", "4"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("cutoff", "--n", "3", "--a", "2.5", "--grid", "0"),
        ("cutoff", "--n", "3", "--a", "2.5", "--grid", "-3"),
        ("cutoff", "--n", "3", "--sweep", "0"),
        ("cutoff", "--n", "2", "--sweep", "3"),
        ("cutoff", "--n", "3"),
        ("retraction", "--samples", "0"),
        ("retraction", "--planes", "0"),
        ("threshold", "--n-min", "5", "--n-max", "3"),
        ("cutoff", "--n", "3", "--sweep", "2", "--grid", "200", "--a", "9"),
        ("cutoff", "--n", "3", "--sweep", "2", "--grid", "200", "--json", "sw.json"),
    ],
    ids=["grid-0", "grid-neg", "sweep-0", "sweep-small-n", "no-a", "samples-0", "planes-0",
         "empty-range", "sweep-with-a", "sweep-with-json"],
)
def test_bad_inputs_exit_2_with_an_error_line(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert not (tmp_path / "sw.json").exists()


def test_main_builds_one_parser_and_dispatches_at_call_time(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    code, out = run_cli(capsys, "threshold", "--n-min", "3", "--n-max", "4")
    assert code == 0 and out.startswith("n,threshold_rad")
    code, out = run_cli(capsys, "cutoff", "--n", "3", "--a", "2.5", "--grid", "200")
    assert code == 0 and report_of(out)["command"] == "cutoff"
    seen = []
    monkeypatch.setattr(cli, "cmd_threshold", lambda args: seen.append(args.n_max) or 7)
    assert main(["threshold", "--n-max", "4"]) == 7
    assert seen == [4]


def test_verify_pair_command(capsys, tmp_path):
    cfg = tmp_path / "pair.cfg"
    cfg.write_text(PAIR_CONFIG)
    code, out = run_cli(capsys, "verify-pair", "--config", str(cfg))
    assert code == 0
    report = report_of(out)
    assert report["overall_pass"]
    assert report["parameters"]["intersection_dim"] == 0
    names = {c["name"] for c in report["checks"]}
    assert {"angle_budget", "wedges_disjoint", "max_comass",
            "calibrates_plane1", "calibrates_plane2"} <= names
    vanishing = next(c for c in report["checks"] if c["name"] == "vanishes_outside_wedges")
    samples = int(re.match(r"(\d+) samples outside both wedges", vanishing["detail"]).group(1))
    assert samples > 0
    # the acceptance tolerances are the library's constants
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["max_comass"]["tolerance"] == COMASS_GRID_TOL
    assert checks["closedness_order"]["threshold"] == CLOSEDNESS_MIN_ORDER


def test_verify_pair_near_threshold_failure(capsys, tmp_path):
    # planes at 0.8 * (2 theta): precondition fails with the measured angle
    from vancal.cutoff import make_params
    from vancal.subspaces import rotated_plane_pair

    params = make_params(3, 2.5)
    tight = 0.8 * 2 * params.theta
    p1, p2 = rotated_plane_pair(9, 3, [tight, tight, tight])
    rows1 = " ; ".join(" ".join(repr(float(v)) for v in row) for row in p1.basis)
    rows2 = " ; ".join(" ".join(repr(float(v)) for v in row) for row in p2.basis)
    cfg = tmp_path / "tight.cfg"
    cfg.write_text(
        f"n = 3\na = 2.5\ngrid = 4\nseed = 0\nplane1 = {rows1}\nplane2 = {rows2}\n"
    )
    code, out = run_cli(capsys, "verify-pair", "--config", str(cfg))
    assert code == 1
    report = report_of(out)
    budget = [c for c in report["checks"] if c["name"] == "angle_budget"][0]
    assert not budget["passed"]
    assert budget["measured"] == pytest.approx(tight, rel=1e-10)


def test_verify_pair_grid_flag_overrides_the_config(capsys, tmp_path):
    # an explicit --grid wins, then the config's grid, then 6
    cfg = tmp_path / "pair.cfg"
    cfg.write_text(PAIR_CONFIG.replace("grid = 5", "grid = 4"))
    for extra, grid in [(["--grid", "3"], 3), ([], 4)]:
        code, out = run_cli(capsys, "verify-pair", "--config", str(cfg), *extra)
        report = report_of(out)
        assert (report["parameters"]["grid"], report["provenance"]["grid"]) == (grid, grid)
        assert code == 0
    cfg.write_text(PAIR_CONFIG.replace("grid = 5\n", ""))
    code, out = run_cli(capsys, "verify-pair", "--config", str(cfg))
    assert report_of(out)["parameters"]["grid"] == 6 and code == 0


def test_verify_pair_k1_config(capsys, tmp_path):
    cfg = tmp_path / "k1.cfg"
    cfg.write_text(
        "n = 3\na = 2.5\ngrid = 4\nseed = 1\nregion_low = -1.1\nregion_high = 1.1\n"
        "plane1 = 1 0 0 0 0 0 0 ; 0 1 0 0 0 0 0 ; 0 0 1 0 0 0 0 ; 0 0 0 1 0 0 0\n"
        "plane2 = 0 0 0 0 1 0 0 ; 0 0 0 0 0 1 0 ; 0 0 0 0 0 0 1 ; 0 0 0 1 0 0 0\n"
    )
    code, out = run_cli(capsys, "verify-pair", "--config", str(cfg))
    assert code == 0
    report = report_of(out)
    assert report["parameters"]["intersection_dim"] == 1


def test_verify_pair_malformed_config(capsys, tmp_path):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("n = 3\n")  # missing everything else
    code = main(["verify-pair", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert "malformed config" in err


@pytest.mark.parametrize("low", ["nan", "-inf"])
def test_verify_pair_rejects_non_finite_region(capsys, tmp_path, low):
    cfg = tmp_path / "box.cfg"
    cfg.write_text(PAIR_CONFIG.replace("region_low = -1.2", f"region_low = {low}"))
    code, out = run_cli(capsys, "verify-pair", "--config", str(cfg))
    assert code == 2
    pipeline = report_of(out)["checks"][-1]
    assert pipeline["name"] == "pipeline" and not pipeline["passed"]
    assert "finite" in pipeline["detail"]


def test_retraction_command_and_negative_control(capsys):
    code, out = run_cli(capsys, "retraction", "--n", "3", "--a", "2.5", "--m", "3",
                        "--samples", "100", "--planes", "20", "--seed", "0")
    assert code == 0
    assert report_of(out)["overall_pass"]
    code, out = run_cli(capsys, "retraction", "--n", "3", "--m", "3",
                        "--samples", "100", "--planes", "20", "--seed", "0",
                        "--force-c", "2.0")
    assert code == 1
    report = report_of(out)
    top = [c for c in report["checks"] if c["name"] == "top_volume_scaling"][0]
    assert top["measured"] > 1.0


@pytest.mark.parametrize("extra", [[], ["--force-c", "2.0"]], ids=["admissible", "force-c-2"])
def test_retraction_report_lists_the_plane_within_top_check(capsys, extra):
    code, out = run_cli(capsys, "retraction", "--samples", "60", "--planes", "10", *extra)
    checks = {c["name"]: c for c in report_of(out)["checks"]}
    within = checks["plane_within_top"]
    assert within["passed"]
    assert within["measured"] == checks["plane_volume_scaling"]["measured"]
    assert within["threshold"] == checks["top_volume_scaling"]["measured"]
    assert code == (1 if extra else 0)


@pytest.mark.parametrize(
    "extra, detail",
    [
        (["--m", "-1"], "outside [0, 2)"),
        (["--force-c", "inf"], "finite c > 0"),
        (["--force-c", "nan"], "finite c > 0"),
        (["--force-c", "0"], "finite c > 0"),
        (["--n", "2", "--force-c", "2.0"], "n must be >= 3"),
    ],
    ids=["m-negative", "force-c-inf", "force-c-nan", "force-c-zero", "force-c-n2"],
)
def test_retraction_bad_parameters_fail_the_parameters_check(capsys, extra, detail):
    code, out = run_cli(capsys, "retraction", "--samples", "10", "--planes", "5", *extra)
    assert code == 2
    report = report_of(out)
    assert [(c["name"], c["passed"]) for c in report["checks"]] == [("parameters", False)]
    assert detail in report["checks"][0]["detail"]


def test_integrate_vanishing_rejects_a_plane_wider_than_the_mesh(capsys, tmp_path):
    mesh_path = tmp_path / "square3.txt"
    write_mesh(square_mesh(ambient_dim=3), mesh_path)
    code = main(["integrate", "--mesh", str(mesh_path), "--field", "vanishing",
                 "--n", "4", "--a", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "outside [0, 3)" in captured.err


def test_fermi_command_presets(capsys):
    for surface, extra in [("sphere", ["--radius", "1.0", "--dim", "2"]),
                           ("plane", []), ("catenoid", [])]:
        code, out = run_cli(capsys, "fermi", "--surface", surface, *extra)
        assert code == 0, surface
        assert report_of(out)["overall_pass"]


def test_fermi_graph_poly(capsys):
    code, out = run_cli(capsys, "fermi", "--surface", "graph",
                        "--poly", "2,0:0.3 0,2:0.1")
    assert code == 0
    report = report_of(out)
    match = [c for c in report["checks"] if c["name"] == "first_order_match"][0]
    # laplacian of 0.3 u^2 + 0.1 v^2 is 0.8; beta = -1.6
    assert match["measured"] == pytest.approx(-1.6, rel=1e-3)


def test_fermi_graph_requires_poly(capsys):
    code = main(["fermi", "--surface", "graph"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("radius", ["0", "nan"])
def test_fermi_degenerate_sphere_exits_2(capsys, radius):
    code, out = run_cli(capsys, "fermi", "--surface", "sphere", "--radius", radius)
    assert code == 2
    (preset,) = report_of(out)["checks"]
    assert preset["name"] == "preset" and not preset["passed"]


def test_comass_command(capsys, tmp_path):
    path = tmp_path / "tensor.txt"
    path.write_text("4 2\n1 0 0 0 0 1\n")  # e01 + e23
    code, out = run_cli(capsys, "comass", "--file", str(path), "--samples", "20000")
    assert code == 0
    report = report_of(out)
    measured = {c["name"]: c["measured"] for c in report["checks"]}
    assert measured["comass"] == pytest.approx(1.0, abs=1e-7)
    assert measured["oracle"] <= measured["comass"] + 1e-6


def test_comass_command_bad_file(capsys, tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("4 2\n1 0\n")
    code = main(["comass", "--file", str(path)])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("text", ["", "4\n"], ids=["empty", "one-token"])
def test_comass_command_rejects_a_file_without_its_header(capsys, tmp_path, text):
    path = tmp_path / "headless.txt"
    path.write_text(text)
    code = main(["comass", "--file", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: tensor file must start with 'N k'\n"


def test_comass_command_rejects_non_finite_coefficients(capsys, tmp_path):
    path = tmp_path / "nan.txt"
    path.write_text("4 2\n1 0 0 0 0 nan\n")
    code = main(["comass", "--file", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize(
    "option",
    [("--samples", "0"), ("--samples", "-5"), ("--multistarts", "0"),
     ("--multistarts", "-1"), ("--tol", "nan"), ("--tol", "inf")],
    ids=["samples-0", "samples-neg", "multistarts-0", "multistarts-neg", "tol-nan", "tol-inf"],
)
def test_comass_command_rejects_bad_options(capsys, tmp_path, option):
    path = tmp_path / "tensor.txt"
    path.write_text("4 2\n1 0 0 0 0 1\n")
    code = main(["comass", "--file", str(path), *option])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_integrate_rejects_nan_mesh(capsys, tmp_path):
    path = tmp_path / "nan.mesh"
    path.write_text("2 2 1\n0 0 1 0 nan 1 1\n")
    code = main(["integrate", "--mesh", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "finite" in captured.err


def test_integrate_rejects_a_non_numeric_coordinate(capsys, tmp_path):
    path = tmp_path / "word.mesh"
    path.write_text("2 2 1\n0 0 1 0 zero 1 1\n")
    code = main(["integrate", "--mesh", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "'zero'" in captured.err


@pytest.mark.parametrize(
    "body, named",
    [("0 0 1 0 # 1 1", "'#'"), ("0 0 1 0\n0 1 1", "at row 1"),
     ("0 0 1 0 0 1 1.0", "'1.0'"), ("0 0 1 0 0 1_000 1", "'1_000'"),
     ("0 0 1 0 0 ١ 1", "'١'")],
    ids=["hash-token", "split-simplex", "float-multiplicity", "underscore-digits",
         "arabic-indic-digit"],
)
def test_integrate_rejects_mesh_tokens_outside_the_format(capsys, tmp_path, body, named):
    path = tmp_path / "bad.mesh"
    path.write_text(f"2 2 1\n{body}\n", encoding="utf-8")
    code = main(["integrate", "--mesh", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and named in captured.err


def test_integrate_command(capsys, tmp_path):
    mesh_path = tmp_path / "square.txt"
    write_mesh(square_mesh(), mesh_path)
    code, out = run_cli(capsys, "integrate", "--mesh", str(mesh_path),
                        "--field", "volume")
    assert code == 0
    report = report_of(out)
    assert report["overall_pass"]
    assert "pairing 1, mass 1" in report["checks"][0]["detail"]


def test_report_determinism_byte_identical(capsys, tmp_path):
    cfg = tmp_path / "pair.cfg"
    cfg.write_text(PAIR_CONFIG)
    outputs = []
    for _ in range(2):
        code, out = run_cli(capsys, "verify-pair", "--config", str(cfg), "--grid", "4")
        assert code == 0
        outputs.append(strip_timing(out))
    assert outputs[0] == outputs[1]
    # and for a seeded stochastic command
    outputs = []
    for _ in range(2):
        code, out = run_cli(capsys, "retraction", "--samples", "50", "--planes", "10",
                            "--seed", "42")
        assert code == 0
        outputs.append(strip_timing(out))
    assert outputs[0] == outputs[1]


def test_reports_embed_reproduction_parameters(capsys):
    code, out = run_cli(capsys, "retraction", "--samples", "50", "--planes", "10",
                        "--seed", "9")
    report = report_of(out)
    assert report["provenance"]["seed"] == 9
    assert report["parameters"]["samples"] == 50
    assert report["parameters"]["planes"] == 10
    assert "tool_version" in report["provenance"]


# -- report files ----------------------------------------------------------------


def json_command_argv(tmp_path, name):
    if name == "verify-pair":
        (tmp_path / "pair.cfg").write_text(PAIR_CONFIG.replace("grid = 5", "grid = 3"))
        return ["verify-pair", "--config", str(tmp_path / "pair.cfg")]
    if name == "comass":
        (tmp_path / "tensor.txt").write_text("4 2\n1 0 0 0 0 1\n")
        return ["comass", "--file", str(tmp_path / "tensor.txt"), "--samples", "2000"]
    if name == "integrate":
        write_mesh(square_mesh(), tmp_path / "square.txt")
        return ["integrate", "--mesh", str(tmp_path / "square.txt")]
    return {
        "cutoff": ["cutoff", "--n", "3", "--a", "2.5", "--grid", "200"],
        "cutoff-rejected": ["cutoff", "--n", "3", "--a", "3.5"],
        "retraction": ["retraction", "--samples", "20", "--planes", "5"],
        "fermi": ["fermi", "--surface", "plane"],
    }[name]


@pytest.mark.parametrize(
    "name, code",
    [("cutoff", 0), ("cutoff-rejected", 2), ("verify-pair", 0), ("retraction", 0),
     ("fermi", 0), ("comass", 0), ("integrate", 0)],
)
def test_json_file_is_the_printed_report(capsys, tmp_path, name, code):
    path = tmp_path / "report.json"
    assert main([*json_command_argv(tmp_path, name), "--json", str(path)]) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.endswith("}\n")
    assert path.read_text(encoding="utf-8") == captured.out
    assert report_of(captured.out)["overall_pass"] == (code == 0)


@pytest.mark.parametrize(
    "argv",
    [["threshold", "--n-max", "6"], ["cutoff", "--n", "4", "--sweep", "4", "--grid", "500"]],
    ids=["threshold", "cutoff-sweep"],
)
def test_csv_file_is_the_printed_table(capsys, tmp_path, argv):
    path = tmp_path / "table.csv"
    assert main([*argv, "--csv", str(path)]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 5
    assert path.read_text(encoding="utf-8") == out


# -- the CLI renders the library's checks ------------------------------------------


def assert_renders(capsys, argv, checks):
    code, out = run_cli(capsys, *argv)
    report = report_of(out)
    assert report["checks"] == [c.to_dict() for c in checks]
    assert report["overall_pass"] == (code == 0)
    return code


def test_integrate_renders_library_checks(capsys, tmp_path):
    mesh_path = tmp_path / "square.txt"
    write_mesh(square_mesh(), mesh_path)
    volume = constant_form_field(AlternatingTensor.basis(2, (0, 1)))
    for cap, code in [(1.0, 0), (0.5, 1)]:
        rep = calibration_inequality_check(square_mesh(), volume, cap)
        argv = ["integrate", "--mesh", str(mesh_path), "--cap", repr(cap)]
        assert assert_renders(capsys, argv, rep.checks()) == code


def test_fermi_renders_library_checks(capsys):
    patch = sphere_patch(1.3, 2)
    u = np.full(2, 0.7) + 0.1 * np.arange(2)
    rep = verify_first_order(patch, u, -patch.point(u), [0.04, 0.02, 0.01])
    argv = ["fermi", "--surface", "sphere", "--radius", "1.3", "--dim", "2"]
    assert assert_renders(capsys, argv, rep.checks()) == 0
    # a sphere smaller than the sample's y: first order matches, the focal rule fails
    patch = sphere_patch(0.03, 2)
    rep = verify_first_order(patch, u, -patch.point(u), [0.04, 0.02, 0.01])
    assert [c.passed for c in rep.checks()] == [True, False]
    assert not rep.passed
    argv = ["fermi", "--surface", "sphere", "--radius", "0.03", "--dim", "2"]
    assert assert_renders(capsys, argv, rep.checks()) == 1


def test_retraction_renders_library_checks(capsys):
    coords = WedgeCoordinates.from_axes(6, range(3), range(3, 6))
    argv = ["retraction", "--samples", "60", "--planes", "10", "--seed", "3"]
    for params, extra, code in [
        (make_params(3, 2.5), [], 0),
        (CutoffParams.forced(3, 2.0), ["--force-c", "2.0"], 1),
    ]:
        rep = verify_area_nonincreasing(RetractionMap(coords, params), 60, 10, 3)
        assert [c.name for c in rep.checks()][4:] == [
            "maps_into_plane", "one_homogeneous", "idempotent"]
        assert assert_renders(capsys, argv + extra, rep.checks()) == code


def test_verify_pair_renders_library_checks(capsys, tmp_path):
    cfg = tmp_path / "pair.cfg"
    cfg.write_text(PAIR_CONFIG)
    params = make_params(3, 2.5)
    pair = intersect_and_split(coordinate_plane(6, (0, 1, 2)), coordinate_plane(6, (3, 4, 5)))
    rep, _ = verify_pair_calibration(params, pair, ([-1.2] * 6, [1.2] * 6), 5, seed=0)
    checks = [angle_budget(params, pair), *rep.checks()]
    assert assert_renders(capsys, ["verify-pair", "--config", str(cfg)], checks) == 0

    # the budget control stops after its one check
    tight = 0.8 * 2 * params.theta
    p1, p2 = rotated_plane_pair(9, 3, [tight, tight, tight])
    rows1 = " ; ".join(" ".join(repr(float(v)) for v in row) for row in p1.basis)
    rows2 = " ; ".join(" ".join(repr(float(v)) for v in row) for row in p2.basis)
    cfg = tmp_path / "tight.cfg"
    cfg.write_text(f"n = 3\na = 2.5\ngrid = 4\nplane1 = {rows1}\nplane2 = {rows2}\n")
    budget = angle_budget(params, intersect_and_split(p1, p2))
    assert not budget.passed
    assert assert_renders(capsys, ["verify-pair", "--config", str(cfg)], [budget]) == 1
