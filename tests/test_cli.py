import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "wallcross.cli"] + args,
        capture_output=True,
        text=True,
    )
    return proc


def test_analyze_conifold(config_dir):
    proc = run_cli(["analyze", "--config", str(config_dir / "conifold.json"), "--json"])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    res = report["results"]
    assert res["case"] == "I"
    assert res["fixed_points"] == {"plus": 2, "minus": 2}
    assert len(res["box_plus"]) == 1 and len(res["box_minus"]) == 1
    assert res["conifold_point"] == [1, 1]
    assert res["w"] == 1


def test_analyze_resolution(config_dir):
    proc = run_cli(["analyze", "--config", str(config_dir / "resolution.json"), "--json"])
    report = json.loads(proc.stdout)
    res = report["results"]
    assert res["case"] == "II-i"
    ages = [s["age"] for s in res["box_minus"]]
    assert ages == [[0, 1], [1, 1]]
    assert res["conifold_point"] == [1, 4]


def test_analyze_gerbe(config_dir):
    proc = run_cli(["analyze", "--config", str(config_dir / "gerbe_flop.json"), "--json"])
    report = json.loads(proc.stdout)
    assert report["results"]["case"] == "III"
    assert report["results"]["wall_normal"] == [2, -1]


def test_malformed_config_names_row(tmp_path):
    cfg = {
        "schema": "wallcross-config/1",
        "git": {"r": 1, "m": 3, "D": [[1], [1, 0], [-2]]},
        "omega_plus": [[1, 1]],
        "omega_minus": [[-1, 1]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["analyze", "--config", str(path)])
    assert proc.returncode == 2
    assert "row 1" in proc.stderr


def test_not_crepant_reported(tmp_path):
    cfg = {
        "schema": "wallcross-config/1",
        "git": {"r": 1, "m": 3, "D": [[1], [1], [-1]]},
        "omega_plus": [[1, 1]],
        "omega_minus": [[-1, 1]],
    }
    path = tmp_path / "noncrepant.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["analyze", "--config", str(path)])
    assert proc.returncode == 1
    assert "NotCrepant" in proc.stderr


def test_validation_error_names_condition(tmp_path):
    cfg = {
        "schema": "wallcross-config/1",
        "git": {"r": 1, "m": 3, "D": [[1], [1], [-2]]},
        "omega_plus": [[0, 1]],
        "omega_minus": [[-1, 1]],
    }
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["analyze", "--config", str(path)])
    assert proc.returncode == 1
    assert "NotDeligneMumford" in proc.stderr
    assert "Assumption(2)" in proc.stderr


def test_reports_byte_identical(config_dir):
    args = ["verify", "lifts", "--config", str(config_dir / "resolution.json"), "--json"]
    out1 = run_cli(args)
    out2 = run_cli(args)
    assert out1.returncode == 0
    assert out1.stdout == out2.stdout
    assert json.loads(out1.stdout)["seed"] == 7


def test_seed_changes_report(config_dir):
    args = ["continuation", "--config", str(config_dir / "conifold.json"), "--json"]
    base = run_cli(args).stdout
    other = run_cli(args + ["--seed", "11"]).stdout
    assert base != other
    assert json.loads(other)["seed"] == 11


def test_zero_tolerance_fails(config_dir):
    # a zero tolerance would FAIL every check, so the config refuses it
    proc = run_cli([
        "verify", "ode", "--config", str(config_dir / "conifold.json"),
        "--tol", "0", "--json",
    ])
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: ")


def test_tolerance_below_the_residual_fails(config_dir):
    proc = run_cli([
        "verify", "ode", "--config", str(config_dir / "conifold.json"),
        "--tol", "1e-300", "--json",
    ])
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["pass"] is False


def test_verify_ode_passes(config_dir):
    proc = run_cli(["verify", "ode", "--config", str(config_dir / "resolution.json"), "--json"])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["pass"] is True
    assert report["results"]["max_residual"] < 1e-12


def test_continuation_gerbe_has_l2_ratio_and_identity_rows(config_dir):
    proc = run_cli(["continuation", "--config", str(config_dir / "gerbe_flop.json"), "--json"])
    report = json.loads(proc.stdout)
    entries = report["results"]["entries"]
    kinds = {e["kind"] for e in entries}
    assert kinds == {"identity", "coefficient", "zero"}
    closed = [e["closed_form"] for e in entries if e["kind"] == "coefficient"]
    assert all("2 sin(pi X/2)" in form for form in closed)


def test_fm_command_lists_basis(config_dir):
    proc = run_cli(["fm", "--config", str(config_dir / "resolution.json"), "--json"])
    report = json.loads(proc.stdout)
    assert report["results"]["basis_size"] == 2
    images = [row["image"] for row in report["results"]["images"]]
    assert any("S3" in image for image in images)


def test_series_command(config_dir):
    proc = run_cli(["series", "--config", str(config_dir / "conifold.json"), "--json"])
    report = json.loads(proc.stdout)
    series = report["results"]["series"]
    assert len(series) == 2
    for entry in series:
        first = entry["coefficients"][0]
        assert first == [1.0, 0.0]


def test_text_output_mentions_pass(config_dir):
    proc = run_cli(["analyze", "--config", str(config_dir / "conifold.json")])
    assert proc.returncode == 0
    assert "result: PASS" in proc.stdout
    assert "case:" in proc.stdout


def test_rank_deficient_config_is_a_config_error(tmp_path):
    cfg = {
        "schema": "wallcross-config/1",
        "git": {"r": 2, "m": 3, "D": [[1, 0], [2, 0], [-3, 0]]},
        "omega_plus": [[1, 1], [1, 1]],
        "omega_minus": [[-1, 1], [1, 1]],
    }
    path = tmp_path / "rank_deficient.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["analyze", "--config", str(path)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: ")
    assert "Traceback" not in proc.stderr


CONIFOLD_GIT = {"r": 1, "m": 4, "D": [[1], [1], [-1], [-1]]}


@pytest.mark.parametrize("patch, argv", [
    (None, ["analyze"]),  # a top level of [1, 2]
    (None, ["analyze", "--seed", "3"]),
    ({"git": dict(CONIFOLD_GIT, r="1")}, ["analyze"]),
    ({"git": dict(CONIFOLD_GIT, r=0)}, ["analyze"]),
    ({"git": {"r": 1, "m": 0, "D": []}}, ["analyze"]),
    ({"z": [1, 2]}, ["verify", "pairing"]),
    ({"truncation": [1, 2]}, ["verify", "ode"]),
    ({"truncation": [1, 2]}, ["verify", "ode", "--trunc", "3"]),
    ({"tolerances": [1, 2]}, ["verify", "mb"]),
    ({"tolerances": [1, 2]}, ["verify", "mb", "--tol", "1e-3"]),
    ({"tolerances": {"mb": "1e-7"}}, ["verify", "mb"]),
    ({"contour": [1, 2]}, ["verify", "mb"]),
    ({"contour": {"t_max": "x"}}, ["verify", "mb"]),
    ({"contour": {"t_max": -5}}, ["verify", "mb"]),
    ({"samples": "3"}, ["verify", "mb"]),
    ({"samples": 0}, ["verify", "uhfm"]),
    ({"truncation": {"series_order": -1}}, ["verify", "ode"]),
    ({}, ["verify", "ode", "--trunc", "0"]),
    ({"seed": "x"}, ["verify", "mb"]),
    ({"seed": 1.5}, ["verify", "mb"]),
    ({"seed": True}, ["verify", "mb"]),
    ({"git": dict(CONIFOLD_GIT, D=[[1], [True], [-1], [-1]])}, ["analyze"]),
    ({"omega_plus": [[True, 1]]}, ["analyze"]),
    ({"z": {"re": [1, True]}}, ["verify", "pairing"]),
    ({"contour": {"t_max": math.inf}}, ["verify", "mb"]),
    ({"contour": {"abscissa": math.inf}}, ["verify", "mb"]),
    ({"contour": {"abscissa": math.nan}}, ["verify", "mb"]),
    ({"tolerances": {"mb": -1}}, ["verify", "mb"]),
    ({}, ["verify", "mb", "--tol", "0"]),
    ({}, ["verify", "mb", "--tol", "nan"]),
    ({"tolerances": {"pole_clearance": -1e-3}}, ["verify", "mb"]),
    ({"tolerances": {"sensitivity_floor": -1}}, ["verify", "uhfm"]),
    ({"tolerances": {"residual": math.inf}}, ["verify", "uhfm"]),
    ({"z": {"re": 0, "im": 0}}, ["verify", "pairing"]),
])
def test_malformed_config_is_a_config_error(config_dir, tmp_path, capsys, patch, argv):
    from wallcross import cli

    raw = [1, 2] if patch is None else dict(json.loads((config_dir / "conifold.json").read_text()), **patch)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert cli.main(argv + ["--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_git_labels_are_ignored_and_hashed_with_the_config(config_dir, tmp_path):
    from wallcross import cli

    raw = json.loads((config_dir / "conifold.json").read_text())
    raw["git"]["labels"] = ["x0", "x1", "y0", "y1"]
    path = tmp_path / "labelled.json"
    path.write_text(json.dumps(raw))
    cfg = cli.load_config(str(path))
    assert cli.config_hash(cfg["raw"]) == cli.config_hash(raw)
    assert cli.cmd_analyze(cfg) == cli.cmd_analyze(cli.load_config(str(config_dir / "conifold.json")))


def test_library_value_error_exits_cleanly(config_dir, monkeypatch, capsys):
    from wallcross import cli

    def boom(wc):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "wall_frame", boom)
    assert cli.main(["analyze", "--config", str(config_dir / "conifold.json")]) == 1
    assert "error: ValueError: boom" in capsys.readouterr().err


def test_wall_frame_error_exits_cleanly(config_dir, monkeypatch, capsys):
    import time
    from dataclasses import replace

    from wallcross import cli

    # no drawn crossing lacks a frame, so the record is doctored: both of its
    # sides are the plus chamber, whose nef cone has no ray on the minus side
    def same_chamber(git, omega_plus, omega_minus):
        wc = wall_crossing(git, omega_plus, omega_minus)
        return replace(wc, omega_minus=wc.omega_plus, A_minus=wc.A_plus)

    wall_crossing = cli.wall_crossing
    monkeypatch.setattr(cli, "wall_crossing", same_chamber)
    start = time.perf_counter()
    assert cli.main(["analyze", "--config", str(config_dir / "conifold.json")]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "error: WallFrameError: minus: the nef cone has no ray on this side" in err
    assert "Traceback" not in err


def test_formerly_unframed_crossing_analyzes(tmp_path):
    import time

    from wallcross import cli

    # draw 5 of random_crepant_crossing(random.Random(122), max_r=3): its
    # common facet cone is a unimodular sliver with rays of sup norm 34327
    # and 84007 in facet coordinates, past the radius-24 rule
    cfg = {
        "schema": "wallcross-config/1",
        "git": {"r": 3, "m": 7, "D": [[-1, 0, 1], [-3, 2, 1], [2, -2, -2], [-2, 0, 1],
                                      [-5, 5, 1], [3, -4, 0], [5, -1, -1]]},
        "omega_plus": [[-89, 8], [49, 8], [41, 8]],
        "omega_minus": [[-87, 8], [47, 8], [39, 8]],
    }
    path = tmp_path / "s122_d05.json"
    path.write_text(json.dumps(cfg))
    start = time.perf_counter()
    results, ok = cli.cmd_analyze(cli.load_config(str(path)))
    assert time.perf_counter() - start < 1.0
    assert ok and results["coordinate_change"]["c"] == Fraction(3, 2)


def test_cli_import_loads_no_scipy():
    code = ("import sys, wallcross.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_config_setting_the_retired_quadrature_tolerance_loads(config_dir, tmp_path):
    from wallcross import cli

    raw = json.loads((config_dir / "conifold.json").read_text())
    raw["tolerances"] = {"quadrature": 1e-11}
    path = tmp_path / "quadrature.json"
    path.write_text(json.dumps(raw))
    cfg = cli.load_config(str(path))
    assert cli.config_hash(cfg["raw"]) == cli.config_hash(raw)
    assert cli.cmd_verify(cfg, "mb")[1]


def test_default_stream_is_the_stdout_at_call_time(config_dir, monkeypatch):
    import io

    from wallcross import cli

    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(["analyze", "--config", str(config_dir / "conifold.json"), "--json"]) == 0
    assert json.loads(out.getvalue())["results"]["case"] == "I"


def test_every_gated_suite_reports_its_margin(config_dir):
    import math

    from wallcross import cli

    cfg = cli.load_config(str(config_dir / "conifold.json"))
    for suite in ("uhfm", "pairing", "mb", "ode"):
        results, ok = cli.cmd_verify(cfg, suite)
        assert ok, suite
        tol, resid = results["tolerance"], results["max_residual"]
        assert 0 < resid < tol, suite
        assert results["margin_digits"] == math.log10(tol / resid), suite


def test_verify_mb_names_its_worst_check(config_dir):
    import re

    proc = run_cli(["verify", "mb", "--config", str(config_dir / "conifold.json"), "--json"])
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)["results"]
    match = re.fullmatch(r"(delta=\[\d+\] f=\['\d+'\]) at sample (\d+), (inside|outside)",
                         results["worst"])
    assert match, results["worst"]
    label, sample, side = match.group(1), int(match.group(2)), match.group(3)
    rows = [row for row in results["checks"] if row["label"] == label]
    assert rows[sample][side] == results["max_residual"]


def test_verify_ode_names_its_worst_check(config_dir):
    import re

    from wallcross import cli

    results, ok = cli.cmd_verify(cli.load_config(str(config_dir / "gerbe_flop.json")), "ode")
    assert ok
    match = re.fullmatch(r"(plus|minus) side, (delta=\[[\d, ]+\] f=\[[^]]*\]) at sample (\d+)",
                         results["worst"])
    assert match, results["worst"]
    side, label, sample = match.group(1), match.group(2), int(match.group(3))
    rows = [row for row in results["checks"] if row["side"] == side and row["label"] == label]
    assert rows[sample]["residual"] == results["max_residual"]


def test_overrides_match_the_same_settings_written_in(config_dir, tmp_path):
    path = config_dir / "conifold.json"
    keys = {"uhfm": "residual", "pairing": "pairing", "mb": "mb", "ode": "ode", "lifts": "lifts"}
    for suite, key in keys.items():
        flags = json.loads(run_cli(["verify", suite, "--config", str(path),
                                    "--samples", "3", "--tol", "1e-3", "--json"]).stdout)
        assert flags["results"]["tolerance"] == 1e-3, suite
        raw = json.loads(path.read_text())
        raw["samples"] = 3
        raw["tolerances"] = {key: 1e-3}
        written_path = tmp_path / ("written_%s.json" % suite)
        written_path.write_text(json.dumps(raw))
        written = json.loads(run_cli(["verify", suite, "--config", str(written_path), "--json"]).stdout)
        assert flags["config_hash"] == written["config_hash"], suite
        assert flags["results"] == written["results"], suite


@pytest.mark.parametrize("argv", [
    ["analyze", "uhfm"],
    ["series", "mb"],
    ["analyze", "--tol", "1e-3"],
    ["continuation", "--tol", "1e-3"],
    ["verify"],
    ["verify", "--tol", "1e-3"],
])
def test_usage_errors_exit_before_the_config_is_read(tmp_path, capsys, argv):
    from wallcross import cli

    # the config does not exist, so reading it would be a config error
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv + ["--config", str(tmp_path / "missing.json")])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: wallcross") and captured.out == ""
    assert "\nwallcross: error: " in captured.err and "config error" not in captured.err


def test_gate_names_the_first_of_equal_largest_residuals():
    from wallcross.cli import _gate

    gated, worst, ok = _gate([("a", 1e-12), ("b", 3e-10), ("c", 3e-10), ("d", 0.0)], 1e-9)
    assert worst == "b" and ok
    assert gated == {"max_residual": 3e-10, "tolerance": 1e-9,
                     "margin_digits": math.log10(1e-9 / 3e-10)}


def test_gate_of_no_checks_passes_with_no_worst():
    from wallcross.cli import _gate

    assert _gate([], 1e-9) == ({"max_residual": 0.0, "tolerance": 1e-9, "margin_digits": None}, None, True)
    assert _gate([("a", 0.0)], 1e-9)[1:] == (None, True)


def test_gate_fails_on_nan_after_a_larger_finite_residual():
    from wallcross.cli import _gate

    gated, worst, ok = _gate([("a", 1e3), ("b", math.nan), ("c", math.nan), ("d", 1e6)], 1e-9)
    assert worst == "b" and not ok
    assert math.isnan(gated["max_residual"]) and gated["margin_digits"] is None
    gated, worst, ok = _gate([("a", 1e-12), ("b", math.inf)], 1e-9)
    assert worst == "b" and not ok and gated["margin_digits"] is None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verify_ode_fails_on_nan_residuals(config_dir, capsys):
    import re

    from wallcross import cli

    path = config_dir.parent / "bench" / "configs" / "local_p3.json"
    assert cli.main(["verify", "ode", "--config", str(path), "--trunc", "400", "--json"]) == 1
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["margin_digits"] is None and math.isnan(results["max_residual"])
    match = re.fullmatch(r"(plus|minus) side, (delta=\[[\d, ]+\] f=\[[^]]*\]) at sample (\d+)",
                         results["worst"])
    assert match, results["worst"]
    side, label, sample = match.group(1), match.group(2), int(match.group(3))
    rows = [row for row in results["checks"] if row["side"] == side and row["label"] == label]
    assert math.isnan(rows[sample]["residual"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verify_pairing_fails_on_nan_residuals(config_dir, tmp_path):
    from wallcross import cli

    raw = json.loads((config_dir / "conifold.json").read_text())
    raw["z"] = {"re": [1, 1000], "im": 0}
    path = tmp_path / "small_z.json"
    path.write_text(json.dumps(raw))
    results, ok = cli.cmd_verify(cli.load_config(str(path)), "pairing")
    assert not ok
    assert math.isnan(results["max_residual"]) and results["worst_sample"] is not None
