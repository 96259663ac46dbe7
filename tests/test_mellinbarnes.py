import cmath
import dataclasses
import itertools
import json
import math
import pathlib
import random
import re
import subprocess
import sys
import types
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import wallcross.mellinbarnes as mellinbarnes
from helpers import (
    choose_abscissa,
    closest,
    column_bases,
    committed_crossings,
    continuation_numeric,
    inner_sum_coefficient,
    left_poles,
    mpmath_left_residues,
    mpmath_right_residues,
    oracle_coefficient_value,
    oracle_line_setup,
    oracle_euler_products,
    oracle_gkz_ode_residual,
    oracle_inner_sum_coefficient,
    oracle_left_residue_sum,
    oracle_left_residues,
    oracle_line_reach,
    oracle_log_gamma_block,
    oracle_mb_integral,
    oracle_right_residue_sum,
    pole_scan,
    pole_separation,
    random_crepant_crossing,
    rank_4_crossing,
    right_poles,
    right_residue_terms,
    stop_position,
)
from wallcross.cli import load_config, parse_config
from wallcross.gitfan import fixed_point_labels, next_to_pairs, plus_labels_across, wall_crossing
from wallcross.hypergeom import (
    PoleCollision,
    _euler_products,
    conifold_point,
    generic_lambdas,
    gkz_ode_residual,
    inner_series,
    lambda_matrix,
    make_inner_spec,
    stack_bases,
    stack_column,
    w_constant,
)
from wallcross.mellinbarnes import (
    RESIDUE_CHUNK,
    ContourSpec,
    ContourTooClose,
    IncompatibleLifts,
    coefficient_values,
    continuation_coefficient,
    continuation_matrix,
    left_residue_sum,
    lift_invariance_check,
    mb_integral,
    mb_integral_with_error,
    right_residue_sum,
    verify_residue_identity,
)


def _xio(wc, scale):
    w = w_constant(wc)
    c = abs(float(conifold_point(wc)))
    return scale * c * cmath.exp(1j * math.pi * w)


def test_conifold_coefficient_closed_form(conifold):
    pair = next(
        p for p in next_to_pairs(conifold) if p[0].delta == (0,) and p[1].delta == (2,)
    )
    coeff = continuation_coefficient(conifold, pair)
    assert coeff.l == 1 and coeff.w == 1 and coeff.j_minus == 2
    lams = generic_lambdas(conifold, 3, seed=17)
    for lam, value in zip(lams, coeff.value(lambda_matrix(lams))[0]):
        l1, l2, l3, l4 = lam
        expected = cmath.exp(-(l1 + l3) / 2) * cmath.sinh((l1 + l4) / 2) / cmath.sinh((l4 - l3) / 2)
        assert abs(value - expected) < 1e-13 * abs(expected)


def test_unit_principal_ratio_when_l_is_one(conifold):
    # for l = 1 the principal sine ratio collapses to 1: the value equals the
    # exponential factor times the plain sine ratios
    pair = next_to_pairs(conifold)[0]
    coeff = continuation_coefficient(conifold, pair)
    lam = generic_lambdas(conifold, 1, seed=19)[0]
    from wallcross.localization import restrict_u

    X = coeff.u_form(lam) / (2j * math.pi) + coeff.shift[0] / coeff.shift[1]
    manual = cmath.exp(-1j * math.pi * coeff.w * X / coeff.l)
    up = restrict_u(conifold.git, pair[0].delta)
    um = restrict_u(conifold.git, pair[1].delta)
    for j in coeff.ratio_js:
        manual *= cmath.sin(math.pi * up[j](lam) / (2j * math.pi)) / cmath.sin(
            math.pi * um[j](lam) / (2j * math.pi)
        )
    assert abs(coeff.value(lambda_matrix([lam]))[0, 0] - manual) < 1e-14 * abs(manual)


def test_coefficient_matches_numeric_oracle(conifold, resolution):
    for wc in (conifold, resolution):
        x_out = _xio(wc, 3.0)
        for lam in generic_lambdas(wc, 10, seed=23):
            for pair in next_to_pairs(wc):
                closed = continuation_coefficient(wc, pair).value(lambda_matrix([lam]))[0, 0]
                numeric = continuation_numeric(wc, pair, x_out, lam)
                assert abs(closed - numeric) < 1e-7 * max(1.0, abs(closed))


def test_incompatible_lifts_rejected(conifold, gerbe_flop):
    pair = next_to_pairs(conifold)[0]
    with pytest.raises(IncompatibleLifts):
        # not a representative of the plus sector class at all
        continuation_coefficient(
            conifold, pair, lift_plus=(Fraction(1, 3),), lift_minus=(Fraction(0),)
        )
    with pytest.raises(IncompatibleLifts):
        # a supplied minus lift is checked next to the default plus lift
        continuation_coefficient(conifold, pair, lift_minus=(Fraction(1, 3),))
    gpair = next(
        p for p in next_to_pairs(gerbe_flop) if p[0].sector.is_zero and p[1].sector.is_zero
    )
    with pytest.raises(IncompatibleLifts):
        # valid class representatives whose difference leaves the wall line
        continuation_coefficient(
            gerbe_flop, gpair,
            lift_plus=(Fraction(0), Fraction(0)),
            lift_minus=(Fraction(1), Fraction(0)),
        )
    with pytest.raises(IncompatibleLifts, match="does not represent"):
        # both lifts moved by one vector over a denominator that neither
        # sector has: their difference stays on the wall line, but neither
        # lift's fractional part is its sector's f
        continuation_coefficient(
            gerbe_flop, gpair,
            lift_plus=(Fraction(2, 5), Fraction(1, 5)),
            lift_minus=(Fraction(2, 5), Fraction(1, 5)),
        )


def test_supplied_lifts_are_kept_as_integer_numerators(gerbe_flop):
    # a lift is (s, n, c), n / s with c = D . n, all Python ints, whether it
    # is supplied as ints or as Fractions
    gpair = next(
        p for p in next_to_pairs(gerbe_flop) if p[0].sector.is_zero and p[1].sector.is_zero
    )
    pairings = tuple(row[0] for row in gerbe_flop.git.D)
    for lifts in (((1, 0), [1, 0]), ((Fraction(1), Fraction(0)), (Fraction(2, 2), 0))):
        coeff = continuation_coefficient(gerbe_flop, gpair, *lifts)
        for lift in (coeff.lift_plus, coeff.lift_minus):
            assert lift == (1, (1, 0), pairings)
            assert all(type(x) is int for x in (lift[0],) + lift[1] + lift[2])


def test_matrix_structure_conifold(conifold):
    mat = continuation_matrix(conifold)
    assert len(mat.rows) == 2 and len(mat.cols) == 2
    assert all(kind == "coefficient" for kind in mat.kinds.values())


def test_matrix_structure_resolution(resolution):
    mat = continuation_matrix(resolution)
    assert len(mat.rows) == 2 and len(mat.cols) == 2
    assert all(kind == "coefficient" for kind in mat.kinds.values())
    assert {l.f for l in mat.cols} == {(Fraction(0),), (Fraction(1, 2),)}


def test_matrix_structure_gerbe(gerbe_flop):
    mat = continuation_matrix(gerbe_flop)
    assert len(mat.rows) == 4 and len(mat.cols) == 4
    kinds = {}
    for (i, j), kind in mat.kinds.items():
        kinds.setdefault(kind, 0)
        kinds[kind] += 1
    # two common fixed points give identity entries; the two sectors over the
    # crossing pair give coefficient entries against both minus sectors
    assert kinds == {"identity": 2, "coefficient": 4}
    # only the nonzero cells are stored: every other cell is zero
    assert len(mat.rows) * len(mat.cols) - len(mat.kinds) == 10
    # identity rows are unit rows: no other nonzero entry in those rows
    for i, lp in enumerate(mat.rows):
        if lp.delta in gerbe_flop.A_minus.minimal:
            row_kinds = [mat.kinds.get((i, j), "zero") for j in range(len(mat.cols))]
            assert row_kinds.count("identity") == 1
            assert row_kinds.count("coefficient") == 0


def test_residue_identity(conifold, resolution):
    for wc in (conifold, resolution):
        x_in, x_out = _xio(wc, 0.3), _xio(wc, 3.0)
        lam = generic_lambdas(wc, 1, seed=29)[0]
        for label in fixed_point_labels(wc.git, wc.A_plus):
            rep, = verify_residue_identity(wc, [label], x_in, x_out, [lam])
            assert rep.residual_inside < 1e-8
            assert rep.residual_outside < 1e-8


def test_residue_identity_precondition(conifold):
    lam = generic_lambdas(conifold, 1, seed=29)[0]
    label = fixed_point_labels(conifold.git, conifold.A_plus)[0]
    with pytest.raises(ValueError):
        verify_residue_identity(conifold, [label], _xio(conifold, 2.0), _xio(conifold, 3.0), [lam])


def test_abscissa_independence(conifold):
    lam = generic_lambdas(conifold, 1, seed=31)[0]
    label = fixed_point_labels(conifold.git, conifold.A_plus)[0]
    spec = make_inner_spec(conifold, label)
    x = _xio(conifold, 0.4)
    v1 = mb_integral(spec, x, lam, ContourSpec(abscissa=-0.15))
    v2 = mb_integral(spec, x, lam, ContourSpec(abscissa=-0.35))
    assert abs(v1 - v2) < 1e-9 * max(1.0, abs(v1))


def test_pole_separation_positive(conifold, resolution):
    for wc in (conifold, resolution):
        lam = generic_lambdas(wc, 1, seed=37)[0]
        label = fixed_point_labels(wc.git, wc.A_plus)[0]
        spec = make_inner_spec(wc, label)
        assert pole_separation(spec, lam) > 1e-3
        sigma = choose_abscissa(spec, lam, ContourSpec())
        assert -0.45 <= sigma <= -0.05


def test_explicit_abscissa_must_clear_the_poles(conifold):
    lam = generic_lambdas(conifold, 1, seed=31)[0]
    label = fixed_point_labels(conifold.git, conifold.A_plus)[0]
    spec = make_inner_spec(conifold, label)
    x = _xio(conifold, 0.4)
    pole = next(p for _j, _n, p in left_poles(spec, lam) if -1.0 < p.real < 0.0)
    for sigma in (0.0, -1.0 + 5e-4, pole.real - 5e-4):
        with pytest.raises(ContourTooClose):
            choose_abscissa(spec, lam, ContourSpec(abscissa=sigma))
        with pytest.raises(ContourTooClose):
            mb_integral(spec, x, lam, ContourSpec(abscissa=sigma))
    assert choose_abscissa(spec, lam, ContourSpec(abscissa=-0.15)) == -0.15


def test_library_refuses_a_nonnegative_abscissa(conifold):
    # an abscissa >= 0 leaves the pole at s = 0 left of the line, and the
    # residue identity would read residuals of hundreds with no error
    lams = generic_lambdas(conifold, 2, seed=7)
    x_in, x_out = _xio(conifold, 0.3), _xio(conifold, 3.0)
    for label in plus_labels_across(conifold):
        for sigma in (0.5, 0.0):
            with pytest.raises(ContourTooClose, match="abscissa %g is not negative" % sigma):
                verify_residue_identity(conifold, [label], x_in, x_out, lams, ContourSpec(abscissa=sigma))


def _mpmath_barnes(spec, x, lam, sigma, t_max, breaks=()):
    """The Barnes integral of mb_integral_with_error, written out at 30
    digits: the line integral by mpmath.quad plus the residues of the poles
    right of the line.  The line is split at nine even points and at breaks,
    where a pole next to the line puts a sharp peak."""
    mpmath.mp.dps = 30
    bases = [mpmath.mpc(b.real, b.imag) + mpmath.mpf(d) / spec.det
             for b, d in zip(spec.betas(lam), spec.d)]
    w = -1 + sum(e for e in spec.e if e > 0)
    log_xi = mpmath.log(mpmath.mpc(x.real, x.imag) * mpmath.exp(-1j * mpmath.pi * w))

    def integrand(s, skip=None):
        v = mpmath.exp(s * log_xi) * mpmath.pi / mpmath.sin(mpmath.pi * s)
        for j, (base, e) in enumerate(zip(bases, spec.e)):
            if j != skip:
                v *= mpmath.gamma(-base - s * e) if e < 0 else mpmath.rgamma(1 + base + s * e)
        return v

    line = mpmath.quad(lambda t: integrand(mpmath.mpc(sigma, t)),
                       sorted(mpmath.linspace(-t_max, t_max, 9) + list(breaks)))
    value = -line / (2 * mpmath.pi)
    for j, n, _p in right_poles(spec, lam, sigma):
        l = -spec.e[j]
        value -= (-1) ** n / (mpmath.factorial(n) * l) * integrand((bases[j] - n) / l, skip=j)
    return complex(value)


def test_barnes_integral_against_mpmath(config_dir):
    for name in ("conifold", "resolution", "gerbe_flop"):
        cfg = load_config(str(config_dir / (name + ".json")))
        wc = wall_crossing(cfg["git"], cfg["omega_plus"], cfg["omega_minus"])
        label = next(l for l in fixed_point_labels(wc.git, wc.A_plus)
                     if l.delta not in wc.A_minus.minimal)
        spec = make_inner_spec(wc, label)
        lam = generic_lambdas(wc, 1, seed=53)[0]
        sigma = choose_abscissa(spec, lam, ContourSpec())
        points = (_xio(wc, 0.3), _xio(wc, 3.0))
        (values,), _errs = mb_integral_with_error([spec], points, [lam])
        for scale, x, value in zip((0.3, 3.0), points, values):
            ref = _mpmath_barnes(spec, x, lam, sigma, ContourSpec().t_max)
            assert abs(value - ref) < 1e-12 * abs(ref), (name, scale)
            assert abs(mb_integral(spec, x, lam) - ref) < 1e-12 * abs(ref), (name, scale)


def _crossing(path):
    cfg = load_config(str(path))
    return cfg, wall_crossing(cfg["git"], cfg["omega_plus"], cfg["omega_minus"])


def _line_points(wc):
    """x_inside and x_outside of verify mb, and two points whose integrand
    decays slowly along the line: |arg xi| = 0.9 pi and 0.95 pi."""
    return (_xio(wc, 0.3), _xio(wc, 3.0),
            _xio(wc, 0.5) * cmath.exp(0.9j * math.pi), _xio(wc, 2.0) * cmath.exp(-0.95j * math.pi))


ROOT = pathlib.Path(__file__).parent.parent


LINE_CONFIGS = [
    *(ROOT / "configs" / (name + ".json") for name in ("conifold", "resolution", "gerbe_flop")),
    *(ROOT / "bench" / "configs" / (name + ".json")
      for name in ("local_p2", "local_p3", "local_p4", "flop_2_2_line", "flop_4_4")),
]


def _recording_quad(monkeypatch):
    """The node count of every line evaluation and the reach of its samples,
    as they happen."""
    lines = []
    quad = mellinbarnes.quad

    def recording_quad(f, reach):
        return quad(lambda t: (lines.append((len(t), list(reach))), f(t))[1], reach)

    monkeypatch.setattr(mellinbarnes, "quad", recording_quad)
    return lines


@pytest.mark.parametrize("path", LINE_CONFIGS, ids=lambda p: p.stem)
def test_cut_line_matches_the_full_line_oracle(path, monkeypatch):
    # the error scale is the mass of the sum, not |value|: on the 4-4 flop
    # the residues reach 2.5e5 while the line carries about 10.  The slowly
    # decaying points are cut at t_max before the integrand has decayed, so
    # any two step rules differ there by the end terms of the cut tail; they
    # are compared with the oracle on the line cut at 120
    lines = _recording_quad(monkeypatch)
    cfg, wc = _crossing(path)
    contour = cfg["contour"]
    longer = dataclasses.replace(contour, t_max=120.0)
    points = _line_points(wc)
    lams = generic_lambdas(wc, 5, cfg["seed"], clearance=cfg["tolerances"]["pole_clearance"])
    for label in fixed_point_labels(wc.git, wc.A_plus):
        if label.delta in wc.A_minus.minimal:
            continue
        spec = make_inner_spec(wc, label)
        for lam in lams:
            (values,), _errs = mb_integral_with_error([spec], points, [lam], contour)
            for k, x in enumerate(points):
                where = (path.stem, label.delta, lam, k)
                ref, _err, mass = oracle_mb_integral(spec, x, lam, contour if k < 2 else longer)
                single = mb_integral(spec, x, lam, contour)
                assert abs(single - values[k]) <= 1e-13 * mass, where
                if k < 2:
                    assert abs(values[k] - ref) <= 1e-13 * mass, where
                    assert abs(single - ref) <= 1e-13 * mass, where
                else:
                    assert lines[-1][1] == [contour.t_max * mellinbarnes.STEPS_PER_UNIT], where
                    assert abs(mb_integral(spec, x, lam, longer) - ref) <= 1e-13 * mass, where


def _recording_line(monkeypatch):
    """The nodes k of every Gamma block evaluated on the Barnes line, t =
    k / STEPS_PER_UNIT, as they happen; each must be a node exactly."""
    blocks = []
    block = mellinbarnes._log_gamma_block

    def recording_block(e, bases, s, skip=None, factorial_of=None):
        s_arr = np.asarray(s)
        if s_arr.ndim and s_arr.shape[-1] > 1 and np.all(s_arr.real == s_arr.real[..., :1]):
            t = s_arr.imag.reshape(-1, s_arr.shape[-1])[0]  # a vertical line, the same t in every column
            k = np.round(t * mellinbarnes.STEPS_PER_UNIT).astype(int)
            assert np.array_equal(k / mellinbarnes.STEPS_PER_UNIT, t), t
            blocks.append(k.tolist())
        return block(e, bases, s, skip, factorial_of)

    monkeypatch.setattr(mellinbarnes, "_log_gamma_block", recording_block)
    return blocks


def test_the_line_evaluates_each_node_it_integrates_once(conifold, monkeypatch):
    # the line is evaluated outward from t = 0 on the nodes of the rule, with
    # no separate probe: no node twice, every node the rule sums, and at
    # most one chunk a side past the farthest reach.  Every sample and both
    # points share the blocks, and the rule is called once.  The slowly
    # decaying points are cut at t_max, at a non-integer t_max past its last
    # integer node, and below the shortest cut of 8
    blocks, lines = _recording_line(monkeypatch), _recording_quad(monkeypatch)
    label = fixed_point_labels(conifold.git, conifold.A_plus)[0]
    verify_points = (_xio(conifold, 0.3), _xio(conifold, 3.0))
    for count, t_max, points in ((1, 40.0, verify_points), (5, 40.0, verify_points),
                                 (5, 40.5, verify_points), (5, 40.5, _line_points(conifold)),
                                 (2, 5.5, verify_points), (2, 120.0, _line_points(conifold))):
        lams = generic_lambdas(conifold, count, seed=29)
        blocks.clear()
        lines.clear()
        if points is verify_points:
            verify_residue_identity(conifold, [label], *points, lams, ContourSpec(t_max=t_max))
        else:
            mb_integral_with_error([make_inner_spec(conifold, label)], points, lams, ContourSpec(t_max=t_max))
        (nodes, reach), = lines
        top = max(reach)
        assert len(reach) == count and nodes == 2 * top + 1
        assert top <= 12 * t_max + 1 and (points is verify_points or top == 2 * math.floor(3 * t_max))
        evaluated = sorted(k for block in blocks for k in block)
        assert len(evaluated) == len(set(evaluated)), (count, t_max)
        past = max(evaluated) - top
        assert evaluated == list(range(-top - past, top + past + 1)), (count, t_max)
        assert past <= mellinbarnes.LINE_CHUNK * mellinbarnes.STEPS_PER_UNIT, (count, t_max)


@pytest.mark.parametrize("path", LINE_CONFIGS, ids=lambda p: p.stem)
def test_the_outward_line_cuts_each_column_where_the_full_probe_did(path, monkeypatch):
    # the integer nodes of the outward evaluation stand in for the probe of
    # every integer |t| <= t_max: each column gets the same reach, at verify
    # mb's points and at the slowly decaying ones, for t_max below the
    # shortest cut, at the default, at a non-integer and past the probe
    lines = _recording_quad(monkeypatch)
    cfg, wc = _crossing(path)
    lams = generic_lambdas(wc, 5, cfg["seed"], clearance=cfg["tolerances"]["pole_clearance"])
    specs = [make_inner_spec(wc, label) for label in _labels_across(wc)]
    points = _line_points(wc)
    for t_max in (cfg["contour"].t_max, 5.0, 40.5, 120.0):
        contour = dataclasses.replace(cfg["contour"], t_max=t_max)
        for xs in (points[:2], points):
            lines.clear()
            mb_integral_with_error(specs, xs, lams, contour)
            (_nodes, reach), = lines
            assert reach == [oracle_line_reach(spec, xs, lam, contour) for spec in specs for lam in lams], t_max


def test_the_outward_line_cuts_the_exact_random_draws_where_the_full_probe_did(monkeypatch):
    # the same on every label across the wall of exact-random seeds 1 and 2,
    # at verify mb's points; a draw whose line set-up raises is skipped
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    lines = _recording_quad(monkeypatch)
    compared = 0
    for seed in (1, 2):
        for raw in workloads.random_configs(seed):
            cfg = parse_config(raw)
            wc = wall_crossing(cfg["git"], cfg["omega_plus"], cfg["omega_minus"])
            lams = generic_lambdas(wc, 5, cfg["seed"], clearance=cfg["tolerances"]["pole_clearance"])
            specs = [make_inner_spec(wc, label) for label in plus_labels_across(wc)]
            xs = (_xio(wc, 0.3), _xio(wc, 3.0))
            lines.clear()
            try:
                mb_integral_with_error(specs, xs, lams, cfg["contour"])
            except (PoleCollision, ContourTooClose):
                continue
            (_nodes, reach), = lines
            assert reach == [oracle_line_reach(spec, xs, lam, cfg["contour"]) for spec in specs for lam in lams]
            compared += len(reach)
    assert compared > 1000


@pytest.mark.parametrize("path", LINE_CONFIGS, ids=lambda p: p.stem)
def test_a_stack_of_samples_gives_each_sample_the_bits_of_its_own_call(path):
    # each sample of a 5-stack against a stack of one, and each point of a
    # one-point stack against the one-point, one-sample mb_integral
    cfg, wc = _crossing(path)
    contour = cfg["contour"]
    lams = generic_lambdas(wc, 5, cfg["seed"], clearance=cfg["tolerances"]["pole_clearance"])
    points = _line_points(wc)
    for label in _labels_across(wc):
        spec = make_inner_spec(wc, label)
        values, errs = mb_integral_with_error([spec], points, lams, contour)
        at_points = [mb_integral_with_error([spec], [x], lams, contour)[0][:, 0] for x in points]
        rights = right_residue_sum([spec], points[0], lams)
        lefts = left_residue_sum([spec], points[1], lams)
        for i, lam in enumerate(lams):
            (value,), (err,) = mb_integral_with_error([spec], points, [lam], contour)
            assert np.array_equal(value, values[i]) and np.array_equal(err, errs[i])
            for x, at_point in zip(points, at_points):
                single = mb_integral(spec, x, lam, contour)
                assert single == at_point[i] and type(single) is complex
            assert right_residue_sum([spec], points[0], [lam]) == [rights[i]]
            assert left_residue_sum([spec], points[1], [lam]) == [lefts[i]]


@pytest.mark.parametrize("path", [ROOT / "bench" / "configs" / "local_p3.json",
                                  ROOT / "configs" / "resolution.json"], ids=lambda p: p.stem)
def test_a_pole_at_the_clearance_costs_no_extra_nodes(path, monkeypatch):
    # an abscissa 2e-3 right of a pole: a gap / 8 rule takes 80,001 nodes on
    # local P^3's line, and the pole correction keeps the step.  The next
    # pole of the direction sits just over 1 left of the line, which the
    # rule's own error must cover: at 0.1 c on the resolution, a step of 1/4
    # would miss mpmath by 6e-12
    lines = _recording_quad(monkeypatch)
    cfg, wc = _crossing(path)
    lams = generic_lambdas(wc, 5, cfg["seed"], clearance=cfg["tolerances"]["pole_clearance"])
    label, lam, pole = next((label, lam, p) for label in _labels_across(wc) for lam in lams
                            for _j, _n, p in left_poles(make_inner_spec(wc, label), lam)
                            if -0.45 < p.real < -0.05)
    spec = make_inner_spec(wc, label)
    contour = dataclasses.replace(cfg["contour"], abscissa=pole.real + 2e-3)
    points = (_xio(wc, 0.1), _xio(wc, 0.3), _xio(wc, 3.0))
    (values,), _errs = mb_integral_with_error([spec], points, [lam], contour)
    (nodes, reach), = lines
    assert nodes <= 12 * contour.t_max + 1
    assert nodes == 2 * reach[0] + 1
    for x, value in zip(points, values):
        ref = _mpmath_barnes(spec, x, lam, contour.abscissa, contour.t_max,
                             breaks=(pole.imag - 0.01, pole.imag, pole.imag + 0.01))
        assert abs(value - ref) < 1e-12 * abs(ref)


def test_a_given_abscissa_below_minus_3_is_checked_against_its_poles(config_dir):
    # the conifold's first label across the wall has a pole at Re s = -3.980
    # at its first sample; an abscissa next to it must clear it, and one 2e-3
    # right of it must integrate it, in the library and in the line oracle
    cfg = load_config(str(config_dir / "conifold.json"))
    wc = wall_crossing(cfg["git"], cfg["omega_plus"], cfg["omega_minus"])
    lam = generic_lambdas(wc, 1, cfg["seed"], clearance=cfg["tolerances"]["pole_clearance"])[0]
    label = _labels_across(wc)[0]
    spec = make_inner_spec(wc, label)
    pole = next(p for _j, _n, p in pole_scan(spec.e, column_bases(spec, lam), -4.5, 2.0)
                if -4.0 < p.real < -3.9)
    x_in, x_out = _xio(wc, 0.3), _xio(wc, 3.0)
    close, clear = ContourSpec(abscissa=pole.real + 5e-4), ContourSpec(abscissa=pole.real + 2e-3)
    with pytest.raises(ContourTooClose):
        verify_residue_identity(wc, [label], x_in, x_out, [lam], close)
    rep, = verify_residue_identity(wc, [label], x_in, x_out, [lam], clear)
    assert rep.residual_outside < cfg["tolerances"]["mb"]
    assert rep.residual_inside < cfg["tolerances"]["mb"]
    for x in (x_in, x_out):
        with pytest.raises(ContourTooClose):
            oracle_mb_integral(spec, x, lam, close)
        ref, _err, mass = oracle_mb_integral(spec, x, lam, clear)
        assert abs(mb_integral(spec, x, lam, clear) - ref) <= 1e-13 * mass, x


def test_a_barnes_line_failure_names_its_sample_poles_and_distance(resolution):
    # the three samples are separated by 0.0506, 0.0278 and 0.0262: a
    # clearance of 0.027 fails only the third, and an abscissa 5e-4 right of
    # the third sample's pole near -0.52 clears the others' poles
    lams = generic_lambdas(resolution, 3, seed=7)
    spec = make_inner_spec(resolution, _labels_across(resolution)[0])
    xs = (_xio(resolution, 0.3),)
    poles = [[p for _j, _n, p in left_poles(spec, lam)] for lam in lams]
    with pytest.raises(PoleCollision) as failure:
        mb_integral_with_error([spec], xs, lams, ContourSpec(clearance=0.027))
    found = re.fullmatch(r"sample 2: left poles are closer than the clearance radius:"
                         r" the pole (\S+) and the integer (-?\d+) are (\S+) apart", str(failure.value))
    pole = next(p for p in poles[2] if "%.6g%+.6gj" % (p.real, p.imag) == found[1])
    assert int(found[2]) == round(pole.real)
    assert found[3] == "%g" % abs(pole - round(pole.real)) == "%g" % pole_separation(spec, lams[2])
    pole = next(p for p in poles[2] if -0.6 < p.real < -0.5)
    sigma = pole.real + 5e-4
    with pytest.raises(ContourTooClose) as failure:
        mb_integral_with_error([spec], xs, lams, ContourSpec(abscissa=sigma))
    assert str(failure.value) == "sample 2: abscissa %g clears the poles by only %g, from the pole %s" % (
        sigma, sigma - pole.real, "%.6g%+.6gj" % (pole.real, pole.imag))
    with pytest.raises(ContourTooClose, match="^sample 0: abscissa -0.9995 clears the poles by only"
                                              " 0.0005, from the integer -1$"):
        mb_integral_with_error([spec], xs, lams, ContourSpec(abscissa=-0.9995))


@pytest.mark.parametrize("path", LINE_CONFIGS, ids=lambda p: p.stem)
def test_stacked_gamma_matches_the_per_factor_oracles_bit_for_bit(path, monkeypatch):
    # one log_gamma call per block, class or degree set changes no bit of
    # the per-factor, per-class and per-degree evaluation; the left sums'
    # one residue call per direction gives each class its first term
    seeds = _recording_seeds(monkeypatch)
    cfg, wc = _crossing(path)
    order = cfg["series_order"]
    lams = generic_lambdas(wc, 5, cfg["seed"], clearance=cfg["tolerances"]["pole_clearance"])
    points = (_xio(wc, 0.3), _xio(wc, 3.0))
    ks = np.arange(order + 1)
    for label in fixed_point_labels(wc.git, wc.A_plus):
        if label.delta in wc.A_minus.minimal:
            continue
        spec = make_inner_spec(wc, label)
        for lam in lams:
            betas, bases = spec.betas(lam), column_bases(spec, lam)
            line = -0.25 + 1j * np.linspace(-40.0, 40.0, 161)
            assert np.array_equal(mellinbarnes._log_gamma_block(spec.e, bases, line),
                                  oracle_log_gamma_block(spec, betas, line))
            for j, n, p in pole_scan(spec.e, bases, -3.0, 4.0):
                assert (mellinbarnes._log_gamma_block(spec.e, bases, p, skip=j)
                        == oracle_log_gamma_block(spec, betas, p, skip=j)), (j, n)
            for x in points:
                assert _left_seeds(seeds, spec, x, lam) == [oracle_left_residues(spec, x, lam, j, c)[0]
                                                            for j, e in enumerate(spec.e) for c in range(-e)]
            assert np.array_equal(inner_sum_coefficient(spec, ks, lam),
                                  oracle_inner_sum_coefficient(spec, ks, lam))
            ser, = inner_series([spec], order, [lam])
            assert gkz_ode_residual([ser], [spec], [lam]) == [oracle_gkz_ode_residual(ser, spec, lam)]
            plus, minus = _euler_products(spec.e, bases, ks)
            for n in range(order + 1):
                assert (complex(plus[0][n], plus[1][n]), complex(minus[0][n], minus[1][n])) \
                    == oracle_euler_products(spec, lam, n), n


def test_one_log_gamma_call_per_block_and_one_residue_call_per_direction(all_examples,
                                                                          monkeypatch):
    gamma_calls, residue_calls = [], []
    log_gamma, residue = mellinbarnes.log_gamma, mellinbarnes._interesting_residue

    def counting_log_gamma(z):
        gamma_calls.append(np.shape(z))
        return log_gamma(z)

    def counting_residue(e, bases, log_xi, j_minus, n):
        residue_calls.append(j_minus)
        return residue(e, bases, log_xi, j_minus, n)

    monkeypatch.setattr(mellinbarnes, "log_gamma", counting_log_gamma)
    monkeypatch.setattr(mellinbarnes, "_interesting_residue", counting_residue)
    for wc in all_examples.values():
        lam = generic_lambdas(wc, 1, seed=31)[0]
        label = fixed_point_labels(wc.git, wc.A_plus)[0]
        spec = make_inner_spec(wc, label)
        bases = column_bases(spec, lam)
        negative = [j for j, e in enumerate(spec.e) if e < 0]
        for s, skip in ((0.5 + 1j, None), (-0.25 + 1j * np.arange(-8.0, 9.0), None),
                        (np.array([-0.3 + 0.1j, -1.3 + 0.1j]), negative[0])):
            gamma_calls.clear()
            mellinbarnes._log_gamma_block(spec.e, bases, s, skip)
            assert len(gamma_calls) == 1
        residue_calls.clear()
        left_residue_sum([spec], _xio(wc, 3.0), [lam])
        assert residue_calls == negative


def _labels_across(wc):
    return [l for l in fixed_point_labels(wc.git, wc.A_plus) if l.delta not in wc.A_minus.minimal]


def _recording_seeds(monkeypatch):
    """(direction, residues) of every _interesting_residue call, as they
    happen."""
    seeds = []
    residue = mellinbarnes._interesting_residue

    def recording(e, bases, log_xi, j_minus, n):
        out = residue(e, bases, log_xi, j_minus, n)
        seeds.append((j_minus, out))
        return out

    monkeypatch.setattr(mellinbarnes, "_interesting_residue", recording)
    return seeds


def _left_seeds(seeds, spec, x, lam):
    """The residues of the _interesting_residue calls of left_residue_sum
    on one column, in order, which must be one call per direction."""
    seeds.clear()
    left_residue_sum([spec], x, [lam])
    assert [j for j, _out in seeds] == [j for j, e in enumerate(spec.e) if e < 0]
    return [complex(v) for _j, out in seeds for v in out.ravel()]


def _recording_classes(monkeypatch):
    """Per _sums_in_chunks call, as they happen: the terms that each class
    read, in order, and the size of each chunk."""
    calls = []
    sums_in_chunks = mellinbarnes._sums_in_chunks

    def recording(terms_at, count, length):
        rows, chunks = [[] for _ in range(count)], []

        def recorded(open_, k):
            terms = terms_at(open_, k)
            chunks.append(len(k))
            for q, row in zip(open_, terms):
                rows[q].extend(row)
            return terms

        calls.append((rows, chunks))
        return sums_in_chunks(recorded, count, length)

    monkeypatch.setattr(mellinbarnes, "_sums_in_chunks", recording)
    return calls


def _check_against_the_oracles(value, stopped, classes, oracle_terms, oracle, mpmath_terms):
    """One residue sum of one column: the terms each class read (classes)
    stop where the per-term oracle's terms stop, and the sum is within
    1e-14 * sum |terms| of the oracle's sum where every class stops, and
    within 1e-12 * sum |terms| of the mpmath sum of the same terms where
    one is cut.  mpmath_terms(q, count) gives class q's first count terms.
    Returns the error over sum |terms| and whether it was against mpmath."""
    ends = [stop_position(terms) for terms in oracle_terms]
    assert [stop_position(row) for row in classes] == ends
    assert stopped == all(end is not None for end in ends)
    kept = [terms[:len(terms) if end is None else end + 1] for terms, end in zip(oracle_terms, ends)]
    scale = sum(np.abs(terms).sum() for terms in kept)
    if stopped:
        return abs(value - oracle) / scale, False
    with mpmath.workdps(30):
        ref = complex(mpmath.fsum(t for q, terms in enumerate(kept) for t in mpmath_terms(q, len(terms))))
    return abs(value - ref) / scale, True


def _right_against_the_oracles(spec, x, lam, calls):
    calls.clear()
    (value, stopped), = right_residue_sum([spec], x, [lam])
    (classes, _chunks), = calls
    err, cut = _check_against_the_oracles(value, stopped, classes, [right_residue_terms(spec, x, lam)],
                                          oracle_right_residue_sum(spec, x, lam),
                                          lambda _q, count: mpmath_right_residues(spec, x, lam, count))
    assert err <= (1e-12 if cut else 1e-14), (err, cut)
    return cut


def _left_against_the_oracles(spec, x, lam, calls):
    calls.clear()
    (value, stopped), = left_residue_sum([spec], x, [lam])
    directions = [(j, -e) for j, e in enumerate(spec.e) if e < 0]
    classes = [(j, c) for j, l in directions for c in range(l)]
    assert len(calls) == len(directions)
    err, cut = _check_against_the_oracles(
        value, stopped, [row for rows, _chunks in calls for row in rows],
        [oracle_left_residues(spec, x, lam, j, c) for j, c in classes], oracle_left_residue_sum(spec, x, lam),
        lambda q, count: mpmath_left_residues(spec, x, lam, *classes[q], count))
    assert err <= (1e-12 if cut else 1e-14), (err, cut)
    return cut


@pytest.mark.parametrize("path", LINE_CONFIGS, ids=lambda p: p.stem)
def test_right_residue_sum_matches_the_full_length_oracle(path, monkeypatch):
    # the chunks stop where the rule stops on all 81 terms of the per-term
    # oracle, and the sum is the oracle's to 1e-14 of sum |terms|
    calls = _recording_classes(monkeypatch)
    cfg, wc = _crossing(path)
    lams = generic_lambdas(wc, 5, cfg["seed"], clearance=cfg["tolerances"]["pole_clearance"])
    points = (_xio(wc, 0.3), _line_points(wc)[2])
    for label in _labels_across(wc):
        spec = make_inner_spec(wc, label)
        for lam in lams:
            for x in points:
                _right_against_the_oracles(spec, x, lam, calls)


def test_residue_sums_over_several_chunks_match_the_oracles(all_examples, monkeypatch):
    # near the degeneration radius every class needs a second chunk
    calls = _recording_classes(monkeypatch)
    for wc in all_examples.values():
        for label in _labels_across(wc):
            spec = make_inner_spec(wc, label)
            for lam in generic_lambdas(wc, 2, seed=31):
                assert not _left_against_the_oracles(spec, _xio(wc, 1.25), lam, calls)
                assert all(len(chunks) > 1 for _rows, chunks in calls)
                assert not _right_against_the_oracles(spec, _xio(wc, 0.6), lam, calls)
                assert [chunks for _rows, chunks in calls] == [[RESIDUE_CHUNK, RESIDUE_CHUNK]]


def test_residue_sums_where_the_rule_never_stops_take_every_term(all_examples, monkeypatch):
    # just across the degeneration radius no three terms in a row are
    # small: the sums read all 201 or 81 terms, as the oracles do, and sum
    # them to 1e-12 of sum |terms| of mpmath's sum of the same terms
    calls = _recording_classes(monkeypatch)
    for wc in all_examples.values():
        label = _labels_across(wc)[0]
        spec = make_inner_spec(wc, label)
        lam = generic_lambdas(wc, 1, seed=31)[0]
        x_out, x_in = _xio(wc, 1.02), _xio(wc, 0.95)
        assert _left_against_the_oracles(spec, x_out, lam, calls)
        chunks = [RESIDUE_CHUNK] * 6 + [201 - 6 * RESIDUE_CHUNK]
        assert [c for _rows, c in calls] == [chunks for e in spec.e if e < 0]
        assert all(len(row) == 201 for rows, _chunks in calls for row in rows)
        assert _right_against_the_oracles(spec, x_in, lam, calls)
        assert [c for _rows, c in calls] == [[RESIDUE_CHUNK, RESIDUE_CHUNK, 81 - 2 * RESIDUE_CHUNK]]


def test_each_residue_sum_takes_one_seed_call_per_direction(all_examples, monkeypatch):
    # the terms past the first come from ratios, so a sum of one, two or
    # seven chunks evaluates one Gamma block (right) or one residue block
    # per direction (left); on local P^3 at verify mb's outside point every
    # class still stops in its first chunk
    calls = _recording_classes(monkeypatch)
    blocks, residues = [], []
    block, residue = mellinbarnes._log_gamma_block, mellinbarnes._interesting_residue

    def counting_block(e, bases, s, skip=None, factorial_of=None):
        blocks.append(np.size(s))
        return block(e, bases, s, skip, factorial_of)

    def counting_residue(e, bases, log_xi, j_minus, n):
        residues.append((j_minus, np.shape(n)))
        return residue(e, bases, log_xi, j_minus, n)

    monkeypatch.setattr(mellinbarnes, "_log_gamma_block", counting_block)
    monkeypatch.setattr(mellinbarnes, "_interesting_residue", counting_residue)
    cfg, p3 = _crossing(ROOT / "bench" / "configs" / "local_p3.json")
    cases = [(wc, generic_lambdas(wc, 2, seed=31), (0.3, 0.6, 0.95), (3.0, 1.25, 1.02))
             for wc in all_examples.values()]
    cases.append((p3, generic_lambdas(p3, 5, cfg["seed"], clearance=cfg["tolerances"]["pole_clearance"]),
                  (0.3,), (3.0,)))
    for wc, lams, inside, outside in cases:
        for label in _labels_across(wc):
            spec = make_inner_spec(wc, label)
            negative = [(j, -e) for j, e in enumerate(spec.e) if e < 0]
            for scale in inside:
                calls.clear()
                blocks.clear()
                right_residue_sum([spec], _xio(wc, scale), lams)
                assert blocks == [1]
            for scale in outside:
                calls.clear()
                residues.clear()
                left_residue_sum([spec], _xio(wc, scale), lams)
                assert residues == [(j, (len(lams) * l, 1)) for j, l in negative]
                if wc is p3:
                    assert [chunks for _rows, chunks in calls] == [[RESIDUE_CHUNK]] * len(negative)
            assert wc is p3 or len(calls[0][1]) == 7


def _with_bases(spec):
    """spec with each sample read as the column's bases beta_j + d_j."""
    return types.SimpleNamespace(e=spec.e, d=(0,) * len(spec.e), det=1, label=spec.label, betas=lambda lam: lam)


def _pole_text(call):
    with pytest.raises(PoleCollision) as failure:
        call()
    return str(failure.value)


def test_a_residue_sum_at_a_gamma_pole_names_its_column(conifold, monkeypatch):
    # real bases on the conifold, e = (1, 1, -1, -1): a Gamma argument that
    # falls with k meets a pole past the first term, the same imaginary
    # part in two bases puts one at k = 0, and a base of -6 puts a zero of
    # the right sum's reciprocal Gamma at k = 0.  Each raises where its
    # chunk or seed meets it, named by stage, column and index, as the
    # oracles raise; a real column off the poles sums as the oracles do
    spec = _with_bases(make_inner_spec(conifold, _labels_across(conifold)[0]))
    x_in, x_out = _xio(conifold, 0.3), _xio(conifold, 3.0)
    generic = (0.1 + 0.2j, -0.2 + 0.1j, 0.3 - 0.15j, -0.1 + 0.25j)
    later = (0.1 + 0j, 0.2 + 0j, 3.25 + 0j, 0.25 + 0j)  # -b_3 + p = 3 - n for j- = 2
    assert _pole_text(lambda: oracle_left_residue_sum(spec, x_out, later)) == "log_gamma pole at -0j"
    assert (_pole_text(lambda: left_residue_sum([spec], x_out, [generic, later]))
            == "left residue sum, sample 1: a Gamma pole at n = 3 of direction 2")
    # -b_2 + p = -40 - n for j- = 3; direction 2 meets its pole at n = 40
    # only past the chunk where its sum stops
    shared = (0.1 + 0.3j, 0.2 - 0.1j, 40.25 + 0.2j, 0.25 + 0.2j)
    assert (_pole_text(lambda: left_residue_sum([spec], x_out, [generic, generic, shared]))
            == "left residue sum, sample 2: a Gamma pole at n = 0 of direction 3")
    # a numerator pole at k = 0, and a zero seed, which the recurrence
    # would carry to a sum of 0
    for right, text in (((0.1 + 0j, 0.2 + 0j, 2.0 + 0j, 0.1 + 0.2j), "a Gamma pole at n = 0"),
                        ((-6 + 0j, 0.2 + 0j, 0.3 - 0.1j, 0.1 + 0.2j),
                         "the term at n = 0 is 0, which cannot seed the series")):
        _pole_text(lambda: oracle_right_residue_sum(spec, x_in, right))
        assert _pole_text(lambda: right_residue_sum([spec], x_in, [generic, right])) == (
            "right residue sum, sample 1: " + text)
    calls = _recording_classes(monkeypatch)
    assert not _left_against_the_oracles(spec, x_out, (0.1 + 0j, 0.2 + 0j, 3.3 + 0j, 0.25 + 0j), calls)


def test_a_left_pole_on_a_nonzero_integer_raises_and_names_its_column(conifold):
    # real bases (32.5, 20.75, 11.25, -1) on the conifold's e at 3c: the
    # poles p = -1 - n of direction 3 are integers, where the Gamma factor's
    # pole meets a zero of sin(pi s) and the integrand has a double pole.
    # sin(-pi) rounds to -1.2e-16, not 0, and a simple residue read there
    # reached 1e16; log sin is -inf there, no residue is finite, and the
    # sum raises at its seed, named by its column, as the oracle raises
    spec = _with_bases(make_inner_spec(conifold, _labels_across(conifold)[0]))
    x_out = _xio(conifold, 3.0)
    generic = (0.1 + 0.2j, -0.2 + 0.1j, 0.3 - 0.15j, -0.1 + 0.25j)
    real = (32.5 + 0j, 20.75 + 0j, 11.25 + 0j, -1 + 0j)
    assert _pole_text(lambda: oracle_left_residues(spec, x_out, real, 3, 0)) == "sin(pi z) vanishes at z=(-1+0j)"
    _xi, log_xi = mellinbarnes._split_xi(spec, x_out)
    bases = mellinbarnes._base_rows(stack_bases([spec], [real]))
    with np.errstate(invalid="ignore"):
        assert not np.isfinite(mellinbarnes._interesting_residue(spec.e, bases, log_xi, 3, np.arange(4))).any()
    assert (_pole_text(lambda: left_residue_sum([spec], x_out, [generic, real]))
            == "left residue sum, sample 1: a Gamma pole at n = 0 of direction 3")
    # a quarter off the integers the same column sums
    assert left_residue_sum([spec], x_out, [(32.5 + 0j, 20.75 + 0j, 11.25 + 0j, -1.25 + 0j)])[0][1]


def test_a_numerator_pole_on_the_barnes_line_names_its_stage_column_and_node(conifold):
    # at clearance 0 the set-up keeps an abscissa through the left pole
    # b_3 - 1 = -0.25 + 0.5j, so Gamma(-b_3 + s) meets its pole at the node
    # t = 0.5; the line raises there, named by its column
    spec = _with_bases(make_inner_spec(conifold, _labels_across(conifold)[0]))
    generic = (0.1 + 0.2j, -0.2 + 0.1j, 0.3 - 0.15j, -0.1 + 0.25j)
    on_line = (0.1 + 0.2j, -0.2 + 0.1j, 0.3 - 0.15j, 0.75 + 0.5j)
    contour = ContourSpec(abscissa=-0.25, clearance=0.0)
    assert (_pole_text(lambda: mb_integral_with_error([spec], [_xio(conifold, 3.0)], [generic, on_line], contour))
            == "Barnes line, sample 1: a Gamma pole at t = 0.5")
    values, errors = mb_integral_with_error([spec], [_xio(conifold, 3.0)], [generic],
                                            ContourSpec(abscissa=-0.25, clearance=0.0))
    assert np.isfinite(values).all() and np.isfinite(errors).all()


def test_a_zero_of_a_denominator_on_the_line_matches_mpmath(tmp_path):
    # D = (3, 5, -7, -1): the abscissa makes 5 sigma an integer where
    # beta_j = 0, so a denominator 1/Gamma(1 + d_j + sigma e_j) is zero at
    # the node t = 0 of some column; that column's line is the mpmath
    # Barnes integral's, whose rgamma is 0 there, to 1e-12
    D = (3, 5, -7, -1)
    raw = {"schema": "wallcross-config/1", "git": {"r": 1, "m": len(D), "D": [[d] for d in D]},
           "omega_plus": [[1, 1]], "omega_minus": [[-1, 1]], "seed": 7, "samples": 20}
    path = tmp_path / "weighted.json"
    path.write_text(json.dumps(raw))
    cfg, wc = _crossing(path)
    lams = generic_lambdas(wc, 20, cfg["seed"], clearance=cfg["tolerances"]["pole_clearance"])
    zeros = []
    for label in _labels_across(wc):
        spec = make_inner_spec(wc, label)
        for lam in lams:
            sigma = choose_abscissa(spec, lam, ContourSpec())
            if mellinbarnes._log_gamma_block(spec.e, column_bases(spec, lam), complex(sigma)).real == -np.inf:
                zeros.append((spec, lam, sigma))
    assert zeros
    spec, lam, sigma = zeros[0]
    points = (_xio(wc, 0.3), _xio(wc, 3.0))
    (values,), _errs = mb_integral_with_error([spec], points, [lam])
    for x, value in zip(points, values):
        ref = _mpmath_barnes(spec, x, lam, sigma, ContourSpec().t_max)
        assert abs(value - ref) < 1e-12 * abs(ref)


def test_local_p9_passes_verify_mb_and_its_residue_sums_match_mpmath(tmp_path, monkeypatch):
    # the scale ladder's local P^9, D = (1^10, -10): its left classes step
    # by l = 10, the longest ratio product of these tests.  The CLI PASSes
    # verify mb, and on two labels and two samples the sums are within
    # 1e-14 of sum |terms| of mpmath's sum of the terms that they read
    raw = {"schema": "wallcross-config/1", "git": {"r": 1, "m": 11, "D": [[1]] * 10 + [[-10]]},
           "omega_plus": [[1, 1]], "omega_minus": [[-1, 1]], "seed": 7, "samples": 20,
           "z": {"re": [1, 1], "im": [0, 1]}, "truncation": {"series_order": 40, "base_exponent_bound": 10}}
    path = tmp_path / "local_p9.json"
    path.write_text(json.dumps(raw))
    proc = subprocess.run([sys.executable, "-m", "wallcross.cli", "verify", "mb", "--config", str(path), "--json"],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and json.loads(proc.stdout)["pass"], proc.stdout + proc.stderr
    calls = _recording_classes(monkeypatch)
    cfg, wc = _crossing(path)
    lams = generic_lambdas(wc, 2, cfg["seed"], clearance=cfg["tolerances"]["pole_clearance"])
    labels = _labels_across(wc)
    assert len(labels) == 10
    x_in, x_out = _xio(wc, 0.3), _xio(wc, 3.0)
    for label in (labels[0], labels[-1]):
        spec = make_inner_spec(wc, label)
        for lam in lams:
            for residue_sum, x, terms in (
                    (right_residue_sum, x_in, lambda _q, count: mpmath_right_residues(spec, x_in, lam, count)),
                    (left_residue_sum, x_out, lambda q, count: mpmath_left_residues(spec, x_out, lam, 10, q, count))):
                calls.clear()
                (value, stopped), = residue_sum([spec], x, [lam])
                (rows, _chunks), = calls
                assert stopped and len(rows) in (1, 10)
                with mpmath.workdps(30):
                    refs = [t for q, row in enumerate(rows) for t in terms(q, len(row))]
                    ref, scale = complex(mpmath.fsum(refs)), float(mpmath.fsum(abs(t) for t in refs))
                assert abs(value - ref) <= 1e-14 * scale, abs(value - ref) / scale


@pytest.mark.parametrize("path", [ROOT / "bench" / "configs" / "flop_2_2_line.json",
                                  ROOT / "configs" / "gerbe_flop.json"], ids=lambda p: p.stem)
def test_constant_gamma_factors_are_evaluated_once(path, monkeypatch):
    # a factor with e_j = 0 adds one element to the block's log_gamma call,
    # and the block keeps every bit of the per-factor evaluation
    sizes = []
    log_gamma = mellinbarnes.log_gamma

    def counting_log_gamma(z):
        sizes.append(np.size(z))
        return log_gamma(z)

    monkeypatch.setattr(mellinbarnes, "log_gamma", counting_log_gamma)
    cfg, wc = _crossing(path)
    lams = generic_lambdas(wc, 3, cfg["seed"], clearance=cfg["tolerances"]["pole_clearance"])
    line = -0.25 + 1j * np.linspace(-40.0, 40.0, 161)
    for label in _labels_across(wc):
        spec = make_inner_spec(wc, label)
        constant = [j for j, e in enumerate(spec.e) if e == 0]
        assert constant
        for lam in lams:
            betas, bases = spec.betas(lam), column_bases(spec, lam)
            poles = pole_scan(spec.e, bases, -3.0, 4.0)
            j_minus = poles[0][0]
            at_poles = np.array([p for j, _n, p in poles if j == j_minus])
            for s, skip in ((line, None), (at_poles, j_minus), (at_poles[0], j_minus)):
                varying = len(spec.e) - len(constant) - (skip is not None)
                sizes.clear()
                block = mellinbarnes._log_gamma_block(spec.e, bases, s, skip)
                assert sizes == [np.size(s) * varying + len(constant)]
                assert np.array_equal(block, oracle_log_gamma_block(spec, betas, s, skip))


def _negative_integer_residue_is_zero(spec, n):
    """The residue at -1-n carries a reciprocal Gamma at a nonpositive
    integer over the defining anticone, hence vanishes identically."""
    s = -1 - n
    return any(1 + spec.d[j] // spec.det + s * spec.e[j] <= 0 for j in spec.label.delta)


def test_negative_integer_residues_vanish(conifold, resolution):
    for wc in (conifold, resolution):
        label = fixed_point_labels(wc.git, wc.A_plus)[0]
        spec = make_inner_spec(wc, label)
        for n in range(4):
            assert _negative_integer_residue_is_zero(spec, n)


def test_left_sum_equals_minus_integral(resolution):
    # the grouped left residues reproduce the continued integral with the
    # residue classes of both sectors contributing
    lam = generic_lambdas(resolution, 1, seed=41)[0]
    label = fixed_point_labels(resolution.git, resolution.A_plus)[0]
    spec = make_inner_spec(resolution, label)
    x_out = _xio(resolution, 3.0)
    v = mb_integral(spec, x_out, lam)
    (left, _stopped), = left_residue_sum([spec], x_out, [lam])
    assert abs(v + left) < 1e-9


def test_lift_invariance(all_examples):
    for wc in all_examples.values():
        lam = generic_lambdas(wc, 1, seed=43)[0]
        for pair in next_to_pairs(wc):
            assert all(lift_invariance_check(wc, pair, [lam]))


def test_lift_check_builds_each_coefficient_once(conifold, monkeypatch):
    # the base coefficient and its three shifted variants, whatever the
    # number of samples
    built = []
    build = mellinbarnes._coefficient

    def counting(*args, **kwargs):
        built.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(mellinbarnes, "_coefficient", counting)
    lams = generic_lambdas(conifold, 5, seed=43)
    assert lift_invariance_check(conifold, next_to_pairs(conifold)[0], lams) == [True] * 5
    assert len(built) == 4


def _bits(z):
    return z.real.hex(), z.imag.hex()


def test_coefficient_values_match_the_scalar_oracle(monkeypatch):
    # every cell of the committed crossings, the rank-4 crossing and
    # exact-random's seed-1 draws, and on the first three pairs of each the
    # base and the three moved lifts that lift_invariance_check builds, at
    # three samples: one array evaluation of a stack gives every value
    # within 1e-13 of the cmath scalars, and in fact their bits
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    built = []
    build = mellinbarnes._coefficient

    def recording(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(mellinbarnes, "_coefficient", recording)
    crossings = list(committed_crossings()) + [rank_4_crossing()]
    for raw in workloads.random_configs(1):
        cfg = parse_config(raw)
        crossings.append(wall_crossing(cfg["git"], cfg["omega_plus"], cfg["omega_minus"]))
    assert len(crossings) == 17 + 1 + 74
    values = stacks = 0
    for wc in crossings:
        try:
            lams = generic_lambdas(wc, 3, 7)
        except PoleCollision:
            continue
        cells = list(continuation_matrix(wc).coefficients.values())
        variants = []
        for pair in next_to_pairs(wc)[:3]:
            built.clear()
            lift_invariance_check(wc, pair, lams)
            assert len(built) == 4
            variants.append(list(built))
        for stack in [cells] + variants:
            for coeff, row in zip(stack, coefficient_values(stack, lambda_matrix(lams)).tolist()):
                want = [oracle_coefficient_value(coeff, lam) for lam in lams]
                assert all(abs(v - w) <= 1e-13 * max(1.0, abs(w)) for v, w in zip(row, want))
                assert [_bits(v) for v in row] == [_bits(w) for w in want]
                values += len(row)
            stacks += 1
    assert stacks > 300 and values > 3000


def test_right_sum_matches_series(conifold):
    # inside the degeneration radius, the right residue sum carries the
    # inner series: the ratio of consecutive right terms equals the ratio of
    # series coefficients
    from wallcross.hypergeom import inner_series

    lam = generic_lambdas(conifold, 1, seed=47)[0]
    label = fixed_point_labels(conifold.git, conifold.A_plus)[0]
    spec = make_inner_spec(conifold, label)
    x = _xio(conifold, 0.25)
    ser, = inner_series([spec], 40, [lam])
    v = mb_integral(spec, x, lam)
    (r, _stopped), = right_residue_sum([spec], x, [lam])
    assert abs(v - r) < 1e-10
    # normalization: series = right sum / (value at the trivial exponent)
    (r0, _stopped), = right_residue_sum([spec], _xio(conifold, 1e-300), [lam])
    assert abs(sum(c * x ** k for k, c in enumerate(ser.coeffs)) - r / r0) < 1e-9


def _setup_outcome(setup, e, columns, contour, name):
    """(sigma as a list, counts) of a Barnes-line set-up, or the type and
    text of the error it raises."""
    try:
        sigma, counts = setup(e, columns, contour, name)
    except (PoleCollision, ContourTooClose) as exc:
        return type(exc), str(exc)
    return [float(x) for x in sigma], counts


def test_abscissa_array_scoring_matches_the_list_version():
    # synthetic stacks with one direction e_j = -1 per given real part r_j,
    # so the poles r_j - n with an imaginary part of at most 0.1: the array
    # set-up against the scalar loop, stacks of one and each group of 25
    # draws as one stack
    rng = np.random.default_rng(5)
    cases = [[[]], [[-0.25]], [[-0.3, -0.2]], [[-0.45, -0.05, -0.25, 0.5, 1.0]]]
    # every candidate a pole real part: all gaps are 0, and the first wins
    cases.append([[-0.45 + 0.01 * k for k in range(41)]])
    draws = [[list(rng.uniform(-3.0, 2.0, size=n)) for _ in range(25)] for n in (1, 3, 10, 40)]
    cases += [[reals] for group in draws for reals in group] + draws
    failed = 0
    for stack in cases:
        imag = rng.uniform(-0.1, 0.1, size=len(stack[0]))
        columns = np.array([[complex(r, y) for r, y in zip(reals, imag)] for reals in stack])
        columns = columns.reshape(len(stack), len(stack[0]))
        e = (-1,) * len(stack[0])
        for abscissa, clearance in itertools.product((None, -0.31, -0.5, 2.5), (0.0, 1e-9, 0.05)):
            contour = ContourSpec(abscissa=abscissa, clearance=clearance)
            expected = _setup_outcome(oracle_line_setup, e, columns.tolist(), contour, "column {}".format)
            assert _setup_outcome(mellinbarnes._line_setup, e, columns, contour, "column {}".format) == expected
            failed += expected[0] in (PoleCollision, ContourTooClose)
    assert failed > 100, failed


def test_line_setup_matches_the_scalar_oracle():
    # every label across the wall and three samples as one stack, on the
    # committed crossings and on seeded draws: sigma, the pole counts and
    # the error of the array set-up against the column loop, at the default
    # contour, at abscissas -0.9995 and 0.5, at a clearance between the two
    # smallest separations of the stack's columns, which fails one column
    # alone, and at an abscissa 5e-4 right of a pole of the last column
    rng = random.Random(29)
    crossings = list(committed_crossings()) + [random_crepant_crossing(rng) for _ in range(40)]
    stacks = late = 0
    for wc in crossings:
        try:
            specs = [make_inner_spec(wc, label) for label in plus_labels_across(wc)]
            lams = generic_lambdas(wc, 3, 7)
        except ValueError:
            continue
        columns, e = stack_bases(specs, lams), specs[0].e
        seps = sorted(closest([p for _j, _n, p in pole_scan(e, column, -3.0, 2.0)])[0] for column in columns)
        contours = [ContourSpec(), ContourSpec(abscissa=-0.9995), ContourSpec(abscissa=0.5),
                    ContourSpec(clearance=(seps[0] + seps[1]) / 2)]
        contours += [ContourSpec(abscissa=p.real + 5e-4) for _j, _n, p in pole_scan(e, columns[-1], -0.9, -0.1)][:1]
        for contour in contours:
            named = []

            def name(c):
                named.append(c)
                return stack_column(specs, lams, c)

            expected = _setup_outcome(oracle_line_setup, e, columns, contour, name)
            assert _setup_outcome(mellinbarnes._line_setup, e, np.array(columns), contour, name) == expected
            late += len(specs) > 1 and named[-1:] > [len(lams)]
        stacks += 1
    assert stacks > 50 and late > 40, (stacks, late)


def test_verify_mb_builds_one_inner_spec_per_label(monkeypatch):
    from wallcross import cli

    builds = []

    def counting(wc, label):
        builds.append(label)
        return make_inner_spec(wc, label)

    monkeypatch.setattr(mellinbarnes, "make_inner_spec", counting)
    for name in ("conifold", "gerbe_flop"):
        cfg = load_config(str(ROOT / "configs" / (name + ".json")))
        wc = wall_crossing(cfg["git"], cfg["omega_plus"], cfg["omega_minus"])
        labels = [lp for lp in fixed_point_labels(wc.git, wc.A_plus) if lp.delta not in wc.A_minus.minimal]
        builds.clear()
        results, _ok = cli.cmd_verify(cfg, "mb")
        assert builds == labels
        assert len(results["checks"]) == len(labels) * min(cfg["samples"], 5)


def test_residue_identity_over_samples_matches_one_sample_at_a_time(gerbe_flop):
    lams = generic_lambdas(gerbe_flop, 3, 7)
    x_in, x_out = _xio(gerbe_flop, 0.3), _xio(gerbe_flop, 3.0)
    for label in fixed_point_labels(gerbe_flop.git, gerbe_flop.A_plus):
        if label.delta in gerbe_flop.A_minus.minimal:
            continue
        reports = verify_residue_identity(gerbe_flop, [label], x_in, x_out, lams)
        assert reports == [verify_residue_identity(gerbe_flop, [label], x_in, x_out, [lam])[0]
                           for lam in lams]


def test_a_residue_sum_cut_before_its_rule_fires_is_named(conifold, config_dir, monkeypatch):
    # at 0.95 c inside, no three right residues in a row are small within
    # the 81 terms, so the sum is cut there; the report says so and verify mb
    # names the cut in its worst check, with the verdict it gave before
    from wallcross import cli

    lam = generic_lambdas(conifold, 1, seed=31)[0]
    label = _labels_across(conifold)[0]
    near, = verify_residue_identity(conifold, [label], _xio(conifold, 0.95), _xio(conifold, 3.0), [lam])
    assert near.cut_inside and not near.cut_outside
    assert near.residual_inside > 1e-7
    at_cli, = verify_residue_identity(conifold, [label], _xio(conifold, 0.3), _xio(conifold, 3.0), [lam])
    assert not at_cli.cut_inside and not at_cli.cut_outside

    cfg = load_config(str(config_dir / "conifold.json"))
    results, ok = cli.cmd_verify(cfg, "mb")
    assert ok and "cut" not in results["worst"]
    identity = cli.verify_residue_identity

    def nearer_inside(wc, labels, x_inside, x_outside, lams, contour):
        return identity(wc, labels, x_inside * 0.95 / 0.3, x_outside, lams, contour)

    monkeypatch.setattr(cli, "verify_residue_identity", nearer_inside)
    results, ok = cli.cmd_verify(cfg, "mb")
    assert not ok
    assert results["worst"].endswith(", inside, residue sum cut at %d terms" % mellinbarnes.RIGHT_TERMS)
