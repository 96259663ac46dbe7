"""Tests of the benchmark's own arithmetic, inputs, clock and tracer."""

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "tests")]

import refclock  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
import worker  # noqa: E402


def test_percentile_rule_needs_ten_samples_beyond():
    assert run.samples_beyond(200, 0.95) == 10
    assert run.highest_percentile(200) == 95
    assert run.highest_percentile(199) == 94
    assert run.samples_beyond(199, 0.94) >= 10
    assert run.highest_percentile(10) is None
    assert run.highest_percentile(11) == 9


def test_harrell_davis_quantiles():
    # reference values from scipy.stats.mstats.hdquantiles
    assert run.quantile(range(1, 11), 0.5) == pytest.approx(5.5)
    assert run.quantile(range(1, 11), 0.95) == pytest.approx(9.79205725)
    sample = [0.1, 0.3, 0.2, 5.0, 0.25, 0.15, 0.4]
    assert run.quantile(sample, 0.5) == pytest.approx(0.3015964)
    assert run.quantile(sample, 0.95) == pytest.approx(4.53595179)
    assert run.quantile([0.2] * 470, 0.95) == pytest.approx(0.2)
    assert run.beta_cdf(447.45, 23.55, 0.95) == pytest.approx(0.5, abs=0.05)


def test_self_time_with_nested_and_adjacent_children():
    # root [0, 10] has children a [1, 4] and b [4, 6], which touch; a has a
    # child g [2, 3], which only a's self time loses
    start = [0.0, 1.0, 2.0, 4.0]
    end = [10.0, 4.0, 3.0, 6.0]
    parent = [-1, 0, 1, 0]
    assert list(spans.self_times(start, end, parent)) == [5.0, 2.0, 1.0, 2.0]


def test_self_time_merges_overlapping_children():
    start = [0.0, 1.0, 2.0]
    end = [10.0, 4.0, 5.0]
    parent = [-1, 0, 0]
    assert spans.self_times(start, end, parent)[0] == 6.0


def test_same_seed_gives_identical_crossings():
    quota = {(1, 4): 2, (2, 5): 1}
    first = wl.random_configs(7, quota)
    assert first == wl.random_configs(7, quota)
    assert first != wl.random_configs(8, quota)
    assert sorted((cfg["git"]["r"], cfg["git"]["m"]) for cfg in first) == [(1, 4), (1, 4), (2, 5)]


def test_seeded_draws_are_picked_by_size_within_each_stratum():
    assert wl.size_proxy([(1,), (2,), (-3,)]) == 6
    assert wl.size_proxy([(1, 0), (0, 1), (1, 1)]) == 3
    picked = wl.random_configs(7, {(1, 5): 3}, pool=4)
    sizes = [wl.size_proxy(cfg["git"]["D"]) for cfg in picked]
    assert sizes == sorted(sizes)


def test_scaled_time_arithmetic():
    assert refclock.scaled(1.0, refclock.REF_NOMINAL_S) == pytest.approx(1.0)
    assert refclock.scaled(1.0, 2 * refclock.REF_NOMINAL_S) == pytest.approx(0.5)


def _spin(seconds):
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        pass


def test_sampler_runs_kernel_units_and_scales_a_span():
    with refclock.Sampler() as sampler:
        c0 = time.process_time()
        _spin(0.3)
        c1 = time.process_time()
    n, k_cpu, k_wall = sampler.inside(c0, c1)
    assert n >= 2 and 0 < k_cpu < c1 - c0 and k_wall > 0
    assert sampler.unit_s(c0, c1) > 0
    short = refclock.Sampler()
    short.top_up()
    assert len(short.took) == refclock.REF_MIN_UNITS


def test_sampler_limit_raises_once_and_not_after_disarm():
    with refclock.Sampler() as sampler:
        sampler.arm(0.1)
        with pytest.raises(refclock.Deadline):
            _spin(10.0)
        sampler.arm(10.0)
        sampler.disarm()
        _spin(0.2)


def test_margin_digits_is_capped_and_takes_the_minimum():
    assert run.margin_digits([]) == run.MARGIN_CAP
    assert run.margin_digits([[0.0, 1e-9]]) == run.MARGIN_CAP
    assert run.margin_digits([[1e-15, 1e-9], [1e-13, 1e-12]]) == pytest.approx(1.0)


def _bindings():
    import wallcross.mellinbarnes as mb

    mods = {name: mod for name, mod in sys.modules.items() if name.startswith("wallcross.")}
    out = {(name, attr): value for name, mod in mods.items() for attr, value in vars(mod).items()}
    out[("ContinuationCoefficient", "value")] = mb.ContinuationCoefficient.__dict__["value"]
    return out


def test_traced_pass_restores_every_wrapped_attribute():
    import wallcross.cli as cli

    ops = [{"command": c, "config": "conifold", "samples": None}
           for c in ("boxes", "continuation", "verify lifts")]
    cfgs = worker.load_configs(cli, {"conifold": wl.config_path(ROOT, "conifold")}, ops)
    before = _bindings()
    tracer = spans.Tracer()
    with tracer.installed():
        assert cli.box_elements is not before[("wallcross.cli", "box_elements")]
        records, _results, _wall, _cpu = worker.run_pass(cli, ops, cfgs, 30.0, tracer)
    after = _bindings()
    assert [rec["status"] for rec in records] == ["ok"] * 3
    assert all(rec["ref_s"] > 0 and rec["cpu_s"] >= 0 for rec in records)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    metrics = spans.layer_metrics(tracer)
    assert metrics["gitfan.box_elements.calls"] > 0
    assert metrics["mellinbarnes.coefficient_value.calls"] > 0


def test_wrappers_are_removed_when_the_pass_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with spans.Tracer().installed():
            raise RuntimeError("stop")
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


def test_benchmark_json_names_what_the_runner_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} == set(wl.LIMIT_S)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    traced = set(spans.layer_metrics(spans.Tracer())) | set(run.RUNNER_LAYERS)
    assert {m["name"] for m in bench["per_layer"]} == traced
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in bench["per_layer"])


def test_known_defects_are_told_apart_from_other_failures():
    analyze = {"command": "analyze", "config": "rank3_s5_d27"}
    assert wl.is_known_defect("exact-random", analyze, "timeout", "cli.cmd_analyze > gitfan.wall_frame")
    assert not wl.is_known_defect("exact-random", analyze, "timeout", "cli.cmd_analyze > gitfan.box_elements")
    uhfm = {"command": "verify uhfm", "config": "flop_m5"}
    assert wl.is_known_defect("kclass-ladder", uhfm, "FAIL", "")
    assert not wl.is_known_defect("kclass-ladder", uhfm, "error", "")
    assert not wl.is_known_defect("continuation", uhfm, "FAIL", "")
