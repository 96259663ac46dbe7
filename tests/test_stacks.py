"""verify mb, verify ode and series evaluate every label and sample of a
crossing side as one stack.

Each column of a stack, one label at one sample, must get the bits of its
own one-label, one-sample evaluation; a failure must name the column's label
and sample; and a stack costs no more log_gamma calls than its costliest
label alone.
"""

import cmath
import dataclasses
import math
import pathlib
import re

import pytest

import wallcross.hypergeom as hypergeom
import wallcross.mellinbarnes as mellinbarnes
from helpers import column_bases, pole_scan, pole_separation
from wallcross import cli
from wallcross.gitfan import plus_labels_across, wall_crossing
from wallcross.hypergeom import (
    PoleCollision,
    gkz_ode_residual,
    inner_series,
    make_inner_spec,
)
from wallcross.mellinbarnes import (
    ContourTooClose,
    mb_integral_with_error,
    verify_residue_identity,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]
COMMITTED = [path for folder in ("configs", "bench/configs")
             for path in sorted((ROOT / folder).glob("*.json"))]


def _crossing(path):
    cfg = cli.load_config(str(path))
    return cfg, wall_crossing(cfg["git"], cfg["omega_plus"], cfg["omega_minus"])


def _mb_points(wc):
    """x_inside and x_outside of verify mb."""
    c, w = abs(float(hypergeom.conifold_point(wc))), hypergeom.w_constant(wc)
    return 0.3 * c * cmath.exp(1j * math.pi * w), 3.0 * c * cmath.exp(1j * math.pi * w)


def _bits(x):
    """x with every float and complex written out exactly, so that == tells
    bits apart: 0.0 from -0.0, and a NaN equals the same NaN."""
    if isinstance(x, (list, tuple)):
        return [_bits(v) for v in x]
    if isinstance(x, complex):
        return (x.real.hex(), x.imag.hex())
    if isinstance(x, float):
        return x.hex()
    if dataclasses.is_dataclass(x):
        return _bits(dataclasses.astuple(x))
    return x


@pytest.mark.parametrize("path", COMMITTED, ids=lambda p: p.stem)
def test_stacked_suites_match_one_label_one_sample_bit_for_bit(path):
    cfg, wc = _crossing(path)
    # verify mb: every residual and cut flag
    x_in, x_out = _mb_points(wc)
    lams = cli._lambdas(cfg, wc, min(cfg["samples"], 5))
    labels = plus_labels_across(wc)
    stacked = verify_residue_identity(wc, labels, x_in, x_out, lams, cfg["contour"])
    alone = [verify_residue_identity(wc, [label], x_in, x_out, [lam], cfg["contour"])[0]
             for label in labels for lam in lams]
    assert len(stacked) == len(labels) * len(lams) and _bits(stacked) == _bits(alone)
    # verify ode on both sides: every series and residual
    swapped = wall_crossing(cfg["git"], cfg["omega_minus"], cfg["omega_plus"])
    for crossing in (wc, swapped):
        lams = cli._lambdas(cfg, crossing, 2)
        specs = [make_inner_spec(crossing, label) for label in plus_labels_across(crossing)]
        columns = [(spec, lam) for spec in specs for lam in lams]
        series = inner_series(specs, cfg["series_order"], lams)
        alone = [inner_series([spec], cfg["series_order"], [lam])[0] for spec, lam in columns]
        assert _bits(series) == _bits(alone)
        assert _bits(gkz_ode_residual(series, specs, lams)) == _bits(
            [gkz_ode_residual([ser], [spec], [lam])[0] for ser, (spec, lam) in zip(alone, columns)])
    # series: every coefficient and exponent at its order and sample
    lam = cli._lambdas(cfg, wc, 1)[0]
    specs = [make_inner_spec(wc, label) for label in labels]
    order = min(cfg["series_order"], 8)
    assert _bits(inner_series(specs, order, [lam])) == _bits(
        [inner_series([spec], order, [lam])[0] for spec in specs])


def _first_failure(attempts):
    """The first of the (name, call) attempts that raises: its name, the
    exception's type and its text."""
    for name, call in attempts:
        try:
            call()
        except (ContourTooClose, PoleCollision) as exc:
            return name, type(exc), str(exc)
    raise AssertionError("no attempt fails")


def test_a_barnes_line_failure_in_a_stack_names_its_label_and_sample():
    # local P^3 has four labels across the wall.  A clearance between the two
    # smallest pole separations of its 20 columns fails one column alone; an
    # abscissa 5e-4 right of a pole fails the first column it comes near.
    # The one-label stack names the sample alone, as a stack of one always
    # has; the stack of all labels names the label as well.
    cfg, wc = _crossing(ROOT / "bench" / "configs" / "local_p3.json")
    lams = cli._lambdas(cfg, wc, 5)
    labels = plus_labels_across(wc)
    specs = [make_inner_spec(wc, label) for label in labels]
    assert len(labels) == 4
    xs = _mb_points(wc)
    gaps = sorted(pole_separation(spec, lam) for spec in specs for lam in lams)
    pole = next(p for spec in specs for _j, _n, p in pole_scan(spec.e, column_bases(spec, lams[3]), -0.6, -0.1))
    for contour, kind in ((dataclasses.replace(cfg["contour"], clearance=(gaps[0] + gaps[1]) / 2),
                           PoleCollision),
                          (dataclasses.replace(cfg["contour"], abscissa=pole.real + 5e-4), ContourTooClose)):
        label, error, text = _first_failure(
            [(spec.label, lambda spec=spec: mb_integral_with_error([spec], xs, lams, contour))
             for spec in specs])
        assert error is kind and re.match(r"sample \d: ", text), text
        with pytest.raises(kind) as failure:
            mb_integral_with_error(specs, xs, lams, contour)
        assert str(failure.value) == "%s, %s" % (label, text)
        # the suite raises it, and the CLI prints it on its error line
        with pytest.raises(kind) as failure:
            cli.cmd_verify(dict(cfg, contour=contour), "mb")
        assert str(failure.value) == "%s, %s" % (label, text)


def test_a_series_failure_in_a_stack_names_its_label_and_sample():
    # the second sample moves one torus parameter so that one generic Gamma
    # argument of the second label sits on the pole at -1; a stack of one
    # names its sample, and the stack of every label and sample names the
    # first column that fails, label and sample
    cfg, wc = _crossing(ROOT / "configs" / "gerbe_flop.json")
    lams = cli._lambdas(cfg, wc, 2)
    specs = [make_inner_spec(wc, label) for label in plus_labels_across(wc)]
    spec = specs[1]
    betas = spec.betas(lams[1])
    j = next(j for j, b in enumerate(betas) if b != 0)
    i = next(i for i, a in enumerate(spec.beta_forms[j].floats) if a)
    shift = (-2 - spec.d[j] / spec.det - betas[j]) * hypergeom.TWO_PI_I / spec.beta_forms[j].floats[i]
    lams[1] = lams[1][:i] + (lams[1][i] + shift,) + lams[1][i + 1:]
    with pytest.raises(PoleCollision, match="^sample 0: Gamma argument"):
        inner_series([spec], 10, [lams[1]])
    name, _error, text = _first_failure(
        [("%s, sample %d" % (s.label, k), lambda s=s, lam=lam: inner_series([s], 10, [lam]))
         for s in specs for k, lam in enumerate(lams)])
    with pytest.raises(PoleCollision) as failure:
        inner_series(specs, 10, lams)
    assert str(failure.value) == "%s: %s" % (name, text.split(": ", 1)[1])


def _count_calls(monkeypatch, module, names):
    """Wrap each named function of the module; the list of the names of the
    calls, in order."""
    calls = []
    for name in names:
        fn = getattr(module, name)

        def counting(*args, fn=fn, name=name):
            calls.append(name)
            return fn(*args)

        monkeypatch.setattr(module, name, counting)
    return calls


def test_a_stack_takes_no_more_log_gamma_calls_than_its_costliest_label(monkeypatch):
    cfg, wc = _crossing(ROOT / "bench" / "configs" / "local_p3.json")
    labels = plus_labels_across(wc)
    assert len(labels) == 4
    gamma = _count_calls(monkeypatch, hypergeom, ["log_gamma"])
    traced = _count_calls(monkeypatch, cli, ["inner_series", "gkz_ode_residual", "verify_residue_identity"])
    # verify ode: one log_gamma call, one series and one residual call per side
    cli.cmd_verify(cfg, "ode")
    assert gamma == ["log_gamma"] * 2
    assert traced == ["inner_series", "gkz_ode_residual"] * 2
    # verify mb: one pass of the traced names, and no more log_gamma calls
    # than the costliest label alone takes
    mb_gamma = _count_calls(monkeypatch, mellinbarnes, [
        "log_gamma", "mb_integral_with_error", "right_residue_sum", "left_residue_sum"])
    del traced[:]
    cli.cmd_verify(cfg, "mb")
    stacked = mb_gamma.count("log_gamma")
    assert traced == ["verify_residue_identity"]
    assert [c for c in mb_gamma if c != "log_gamma"] == [
        "mb_integral_with_error", "right_residue_sum", "left_residue_sum"]
    x_in, x_out = _mb_points(wc)
    lams = cli._lambdas(cfg, wc, min(cfg["samples"], 5))
    alone = []
    for label in labels:
        del mb_gamma[:]
        verify_residue_identity(wc, [label], x_in, x_out, lams, cfg["contour"])
        alone.append(mb_gamma.count("log_gamma"))
    assert stacked <= max(alone)
    assert min(alone) >= 4
