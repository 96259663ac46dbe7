import json
import math
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from helpers import RANK_4_CONFIG


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
    results = report["results"]
    entries = results["entries"]
    kinds = {e["kind"] for e in entries}
    # only the nonzero cells are listed: the other 10 of the 4 x 4 are zero
    assert kinds == {"identity", "coefficient"}
    assert (results["rows"], results["cols"]) == (4, 4) and len(entries) == 6
    closed = [e["closed_form"] for e in entries if e["kind"] == "coefficient"]
    assert all("2 sin(pi X/2)" in form for form in closed)


ROOT = pathlib.Path(__file__).resolve().parents[1]
# the committed crossings, configs/ and bench/configs/, by path below the root
COMMITTED = [str(path.relative_to(ROOT).with_suffix("")) for folder in ("configs", "bench/configs")
             for path in sorted((ROOT / folder).glob("*.json"))]


@pytest.mark.parametrize("name", COMMITTED)
def test_continuation_lists_the_nonzero_cells_of_the_dense_matrix(config_dir, name):
    """The report's entries are the dense listing without its zero cells,
    bit for bit and in order, and the labels and entries rebuild it."""
    from helpers import dense_continuation_entries, dense_continuation_matrix, oracle_jsonify
    from wallcross import cli
    from wallcross.gitfan import wall_crossing

    cfg = cli.load_config(str(config_dir.parent / (name + ".json")))
    results, ok = cli.cmd_continuation(cfg)
    wc = wall_crossing(cfg["git"], cfg["omega_plus"], cfg["omega_minus"])
    matrix = dense_continuation_matrix(wc)
    dense = dense_continuation_entries(matrix, cli._lambdas(cfg, wc, min(cfg["samples"], 3)),
                                       str)

    def differ(got, want):
        """The first positions where two entry lists differ in canonical JSON."""
        got, want = ([json.dumps(oracle_jsonify(e), sort_keys=True) for e in x] for x in (got, want))
        return [k for k in range(max(len(got), len(want))) if got[k:k + 1] != want[k:k + 1]][:5]

    assert ok and differ(results["entries"], [e for e in dense if e["kind"] != "zero"]) == []
    rows, cols = results["row_labels"], results["col_labels"]
    assert (results["rows"], results["cols"]) == (len(rows), len(cols)) == (len(matrix.rows), len(matrix.cols))
    at = {(e["row"], e["col"]): e for e in results["entries"]}
    rebuilt = [at.get((r, c), {"row": r, "col": c, "kind": "zero"}) for r in rows for c in cols]
    assert differ(rebuilt, dense) == []


def test_series_report_gives_the_exponent_of_an_overflowing_series(tmp_path):
    """Thirty characters of pairing 1 against one of -30: the order-8
    coefficients overflow, and the report gives each series' coefficients
    with the power of two they are carried under."""
    from wallcross import cli

    raw = {"schema": "wallcross-config/1", "git": {"r": 1, "m": 31, "D": [[1]] * 30 + [[-30]]},
           "omega_plus": [1], "omega_minus": [-1]}
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(raw))
    results, ok = cli.cmd_series(cli.load_config(str(path)))
    assert ok and len(results["series"]) == 30
    for entry in results["series"]:
        assert entry["exponent"] > 1024
        assert all(math.isfinite(c.real) and math.isfinite(c.imag) for c in entry["coefficients"])


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
    ({"contour": {"abscissa": 0.5}}, ["verify", "mb"]),
    ({"contour": {"abscissa": 0}}, ["verify", "mb"]),
    ({"tolerances": {"pairng": 1e-30}}, ["verify", "pairing"]),
    ({"contour": {"abcissa": 0.5}}, ["verify", "mb"]),
    ({"truncation": {"series_ordr": 5}}, ["series"]),
    ({"truncation": {"series_ordr": 5}}, ["verify", "ode", "--trunc", "3"]),
    ({"z": {"re": [1, 1], "imag": [0, 1]}}, ["verify", "pairing"]),
    ({"git": dict(CONIFOLD_GIT, d=[[1], [1], [-1], [-1]])}, ["analyze"]),
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


def test_rank_4_crossing_past_int64_exits_without_a_traceback(tmp_path):
    # its wall search runs on Python ints (helpers.RANK_4_CONFIG)
    path = tmp_path / "s1030_d07.json"
    path.write_text(json.dumps(RANK_4_CONFIG))
    proc = run_cli(["analyze", "--config", str(path)])
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0 or proc.stderr.count("error:") == 1


def test_fm_refuses_past_its_monomial_budget(tmp_path, capsys):
    # the 8-8 flop x local P^5 (m = 23, r = 2): 48 images of 2^21 monomials
    # each, counted before any is expanded
    import time

    from wallcross import cli

    D = [[1, 0]] * 8 + [[-1, 0]] * 8 + [[0, 1]] * 6 + [[0, -6]]
    cfg = {"schema": "wallcross-config/1", "git": {"r": 2, "m": 23, "D": D},
           "omega_plus": [[1, 1], [1, 1]], "omega_minus": [[-1, 1], [1, 1]]}
    path = tmp_path / "flop8_p5.json"
    path.write_text(json.dumps(cfg))
    start = time.perf_counter()
    assert cli.main(["fm", "--config", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err.count("error:") == 1 and err.count("\n") == 1
    assert err.startswith("error: MonomialBudgetExceeded: the image of e(delta=[8, 16], rho=[0, 0]) has"
                          " 2^21 = 2097152 monomials, and the 48 images 100663296, past the budget of 2097152")


def _weighted_config(tmp_path, D):
    """A weighted rank-1 crossing D with the bundled configs' settings."""
    cfg = {"schema": "wallcross-config/1", "git": {"r": 1, "m": len(D), "D": [[d] for d in D]},
           "omega_plus": [[1, 1]], "omega_minus": [[-1, 1]], "seed": 7, "samples": 20,
           "z": {"re": [1, 1], "im": [0, 1]}, "truncation": {"series_order": 40, "base_exponent_bound": 10}}
    path = tmp_path / "weighted.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("D", [(3, 5, -7, -1), (5, 7, -11, -1), (2, 3, 5, -4, -6), (1, 2, 3, -6), (1, 1, 10, -12)],
                         ids=["3_5_-7_-1", "5_7_-11_-1", "2_3_5_-4_-6", "1_2_3_-6", "1_1_10_-12"])
def test_weighted_rank_1_crossings_pass_the_barnes_suites(tmp_path, capsys, D):
    # on the first three the abscissa sigma makes 1 + d_j + sigma e_j a
    # nonpositive integer at t = 0 for some e_j = 5 or 7 with beta_j = 0: a
    # zero of the reciprocal Gamma, so the integrand is 0 at that node
    from wallcross import cli

    path = _weighted_config(tmp_path, D)
    for suite in ("mb", "ode", "lifts"):
        code = cli.main(["verify", suite, "--config", path, "--json"])
        out, err = capsys.readouterr()
        assert code == 0 and json.loads(out)["pass"] and err == "", (suite, err)


def test_a_heavy_weighted_crossing_ends_in_the_samplers_pole_collision(tmp_path, capsys):
    # D = (7, 11, 13, -31): the sampler keeps every sample whose |u_j| clears
    # pole_clearance, but a left pole lies |u_j| / (2 pi l) from its integer,
    # so the line's set-up rejects sample 2
    from wallcross import cli

    assert cli.main(["verify", "mb", "--config", _weighted_config(tmp_path, (7, 11, 13, -31))]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: PoleCollision: delta=[2] f=['5/13'], sample 2: left poles are"
                                        " closer than the clearance radius: the pole ")


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


def test_verify_pairing_names_its_worst_gram_entry(config_dir):
    import re

    from wallcross import cli
    from wallcross.gitfan import wall_crossing
    from wallcross.ktheory import minus_basis

    cfg = cli.load_config(str(config_dir / "gerbe_flop.json"))
    results, ok = cli.cmd_verify(cfg, "pairing")
    assert ok
    name = r"e\(delta=\[[\d, ]+\], rho=\[[-\d, ]+\]\)"
    match = re.fullmatch(r"(%s) x (%s) at sample (\d+)" % (name, name), results["worst"])
    assert match, results["worst"]
    assert int(match.group(3)) == results["worst_sample"]
    wc = wall_crossing(cfg["git"], cfg["omega_plus"], cfg["omega_minus"])
    names = {cli._basis_name(delta, rho) for delta, rho in minus_basis(wc)}
    assert {match.group(1), match.group(2)} <= names


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


def test_verify_ode_fails_on_nan_residuals(config_dir, capsys, monkeypatch):
    import re

    from wallcross import cli

    path = config_dir.parent / "bench" / "configs" / "local_p3.json"
    args = ["verify", "ode", "--config", str(path), "--trunc", "400", "--json"]
    # a NaN residual, here the third check's, is the worst entry and FAILs
    residual, calls = cli.gkz_ode_residual, []

    def third_is_nan(series, specs, lams):
        out = residual(series, specs, lams)
        if not calls:  # the plus side, whose stack holds the first checks
            out[2] = math.nan
        calls.append(None)
        return out

    monkeypatch.setattr(cli, "gkz_ode_residual", third_is_nan)
    assert cli.main(args) == 1
    # the JSON report writes a NaN as the text report prints it
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["margin_digits"] is None and results["max_residual"] == "nan"
    match = re.fullmatch(r"(plus|minus) side, (delta=\[[\d, ]+\] f=\[[^]]*\]) at sample (\d+)",
                         results["worst"])
    assert match, results["worst"]
    side, label, sample = match.group(1), match.group(2), int(match.group(3))
    rows = [row for row in results["checks"] if row["side"] == side and row["label"] == label]
    assert rows[sample]["residual"] == "nan" and results["checks"].index(rows[sample]) == 2
    # at this order the coefficients overflow a float; carried under a common
    # power of two they give finite residuals, with no warning text on stderr
    proc = run_cli(args)
    assert proc.stderr == ""
    checks = json.loads(proc.stdout)["results"]["checks"]
    assert all(math.isfinite(row["residual"]) for row in checks)


def test_verify_pairing_fails_on_nan_residuals(config_dir, tmp_path):
    from wallcross import cli

    raw = json.loads((config_dir / "conifold.json").read_text())
    for z in ([1, 1000], [1, 300]):
        raw["z"] = {"re": z, "im": 0}
        path = tmp_path / "small_z.json"
        path.write_text(json.dumps(raw))
        results, ok = cli.cmd_verify(cli.load_config(str(path)), "pairing")
        assert not ok
        assert math.isnan(results["max_residual"]) and results["worst_sample"] is not None
        proc = run_cli(["verify", "pairing", "--config", str(path)])
        assert proc.returncode == 1 and proc.stderr == ""


def test_json_report_of_a_nan_residual_is_strict_json(config_dir, tmp_path):
    # the NaN that FAILs the suite is written as the string the text report
    # prints, which a strict parser accepts; the results in memory stay numeric
    from wallcross import cli

    raw = json.loads((config_dir / "conifold.json").read_text())
    raw["z"] = {"re": [1, 300], "im": [0, 1]}
    path = tmp_path / "small_z.json"
    path.write_text(json.dumps(raw))
    proc = run_cli(["verify", "pairing", "--config", str(path), "--json"])
    assert proc.returncode == 1 and proc.stderr == ""

    def refuse(token):
        raise ValueError("non-JSON token %s" % token)

    report = json.loads(proc.stdout, parse_constant=refuse)
    assert report["pass"] is False and report["results"]["max_residual"] == "nan"
    results, _ok = cli.cmd_verify(cli.load_config(str(path)), "pairing")
    assert math.isnan(results["max_residual"])


@pytest.mark.parametrize("name", ["conifold", "resolution", "gerbe_flop"])
def test_reports_match_the_converting_writer(config_dir, name):
    # the encoder's hook and the text writer's leaves give, byte for byte,
    # what converting the whole tree to JSON types first gave
    import io

    from helpers import oracle_emit
    from wallcross import cli

    cfg = cli.load_config(str(config_dir / (name + ".json")))
    runs = [(command, None) for command in cli.COMMANDS if command != "verify"]
    runs += [("verify", suite) for suite in sorted(cli.SUITES)]
    for command, suite in runs:
        run = cli.COMMANDS[command]
        results, ok = run(cfg, suite) if suite else run(cfg)
        report = cli.make_report("verify %s" % suite if suite else command, cfg, results, ok)
        for as_json in (True, False):
            out = io.StringIO()
            cli.emit(report, as_json, out)
            assert out.getvalue() == oracle_emit(report, as_json), (command, suite, as_json)


def _report(results):
    return {"tool": "wallcross", "version": "0", "command": "c", "config_hash": "h", "seed": 1,
            "results": results, "pass": True}


def test_writer_encodes_every_leaf_type_of_a_report():
    import io

    import numpy as np

    from helpers import oracle_emit
    from wallcross import cli

    results = {
        "nan": float("nan"),
        "inf": [float("inf"), -float("inf"), np.float64("nan")],
        "float64": np.float64(0.1),
        "complex128": np.complex128(1.5 - 2j),
        "complex": [1j, complex(float("nan"), -0.0)],
        "fraction": Fraction(-3, 4),
        "nested": ((Fraction(1, 2), (1j, ())), [], ("a", None, True, 7)),
        "long": tuple(Fraction(k, 7) for k in range(10)),
        "empty": [],
        "rows": [{"x": np.float64(2.5), "y": (Fraction(1, 3),)}, {}],
    }
    for as_json in (True, False):
        out = io.StringIO()
        cli.emit(_report(results), as_json, out)
        assert out.getvalue() == oracle_emit(_report(results), as_json), as_json


@pytest.mark.parametrize("leaf", ["int64", "set", "object"])
def test_writer_refuses_an_unknown_leaf(leaf):
    import io

    import numpy as np

    from wallcross import cli

    value = {"int64": np.int64(3), "set": {1, 2}, "object": object()}[leaf]
    for as_json in (True, False):
        with pytest.raises(TypeError):
            cli.emit(_report({"x": [1, (value,)]}), as_json, io.StringIO())
