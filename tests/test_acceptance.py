"""Acceptance suite: one test per criterion, with stated tolerances and
time budgets.  Each test prints a PASS line when its assertions hold."""

import cmath
import json
import math
import random
import subprocess
import sys
import time

from helpers import kc_one, random_crepant_crossing
from wallcross.gitfan import (
    fixed_point_labels,
    make_git,
    next_to_pairs,
    validate_stability,
    wall_crossing,
)
from wallcross.hypergeom import (
    conifold_point,
    generic_lambdas,
    gkz_ode_residual,
    inner_series,
    make_inner_spec,
    w_constant,
)
from wallcross.ktheory import (
    euler_pairing,
    uhfm_sensitivity,
    verify_pairing_preserved,
    verify_uhfm,
)
from wallcross.localization import verify_weight_transition
from wallcross.mellinbarnes import lift_invariance_check, verify_residue_identity

EXAMPLES = [
    ("conifold", [(1,), (1,), (-1,), (-1,)], (1,), (-1,), "I"),
    ("resolution", [(1,), (1,), (-2,)], (1,), (-1,), "II-i"),
    ("gerbe_flop", [(1, 0), (1, 2), (0, 2)], (2, 1), (1, 3), "III"),
]


def _crossings():
    return [
        (name, wall_crossing(make_git(D), wp, wm), case)
        for name, D, wp, wm, case in EXAMPLES
    ]


def _report(name, detail):
    print("ACCEPTANCE %s: PASS (%s)" % (name, detail))


def test_criterion_1_classification():
    for name, D, wp, wm, case in EXAMPLES:
        start = time.monotonic()
        wc = wall_crossing(make_git(D), wp, wm)
        elapsed = time.monotonic() - start
        assert wc.case == case
        assert elapsed < 1.0
    _report("1 classification", "three example families classified I, II-i, III")


def test_criterion_2_weight_transition_exact():
    start = time.monotonic()
    crossings = [wc for _n, wc, _c in _crossings()]
    rng = random.Random(20240817)
    crossings += [random_crepant_crossing(rng) for _ in range(100)]
    n_pairs = 0
    for wc in crossings:
        seen = set()
        for lp, lm in next_to_pairs(wc):
            if (lp.delta, lm.delta) in seen:
                continue
            seen.add((lp.delta, lm.delta))
            n_pairs += 1
            for j in range(wc.git.m):
                assert verify_weight_transition(wc, lp.delta, lm.delta, j)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report("2 weight transition", "exact on %d anticone pairs in %.1fs" % (n_pairs, elapsed))


def test_criterion_3_conifold_point_and_w():
    from fractions import Fraction

    start = time.monotonic()
    expected_c = {"conifold": Fraction(1), "resolution": Fraction(1, 4), "gerbe_flop": Fraction(1)}
    for name, wc, _case in _crossings():
        assert conifold_point(wc) == expected_c[name]
        assert w_constant(wc) == 1  # both formulas agree inside w_constant
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report("3 conifold point and w", "c = 1, 1/4, 1 and w = 1, 1, 1 exactly")


def test_criterion_4_mellin_barnes_residues():
    start = time.monotonic()
    worst = 0.0
    for name, wc, _case in _crossings():
        if name == "gerbe_flop":
            continue
        c = abs(float(conifold_point(wc)))
        w = w_constant(wc)
        x_in = 0.3 * c * cmath.exp(1j * math.pi * w)
        x_out = 3.0 * c * cmath.exp(1j * math.pi * w)
        lams = generic_lambdas(wc, 5, seed=7)
        labels = [label for label in fixed_point_labels(wc.git, wc.A_plus)
                  if label.delta not in wc.A_minus.minimal]
        for rep in verify_residue_identity(wc, labels, x_in, x_out, lams):
            assert rep.residual_inside < 1e-7
            assert rep.residual_outside < 1e-7
            worst = max(worst, rep.residual_inside, rep.residual_outside)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report("4 Barnes residues", "max residual %.2e in %.1fs" % (worst, elapsed))


def test_criterion_5_headline_transform():
    start = time.monotonic()
    worst = 0.0
    worst_sens = float("inf")
    for _name, wc, _case in _crossings():
        lams = generic_lambdas(wc, 20, seed=7)
        rep = verify_uhfm(wc, lams)
        assert rep.max_residual < 1e-9
        worst = max(worst, rep.max_residual)
        sens = uhfm_sensitivity(wc, lams, epsilon=1e-3)
        assert sens > 1e-4
        worst_sens = min(worst_sens, sens)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(
        "5 headline transform",
        "max residual %.2e, sensitivity floor %.2e, %.1fs" % (worst, worst_sens, elapsed),
    )


def test_criterion_6_pairing_preserved():
    start = time.monotonic()
    worst = 0.0
    for name, wc, _case in _crossings():
        if name == "gerbe_flop":
            continue
        lams = generic_lambdas(wc, 10, seed=7)
        for i, lam in enumerate(lams):
            z = complex(1.0 + 0.05 * i, 0.1 + 0.02 * i)
            resid = verify_pairing_preserved(wc, lam, z)
            assert resid < 1e-8
            worst = max(worst, resid)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report("6 pairing preserved", "max residual %.2e in %.1fs" % (worst, elapsed))


def test_criterion_7_localized_euler_oracles():
    start = time.monotonic()
    for D in ([(1,), (1,)], [(2,), (2,)]):
        git = make_git(D)
        A = validate_stability(git, (1,))
        one = kc_one(git)
        from helpers import oracle_sample_lambdas

        for lam in oracle_sample_lambdas(git.m, 10, seed=7):
            assert abs(euler_pairing(git, A, one, one, lam) - 1) < 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report("7 localized Euler", "chi(O,O) = 1 on both oracle spaces at 10 samples")


def test_criterion_8_ode_annihilation():
    start = time.monotonic()
    worst = 0.0
    for _name, wc, _case in _crossings():
        for crossing in (wc, wall_crossing(wc.git, wc.omega_minus, wc.omega_plus)):
            lams = generic_lambdas(crossing, 1, seed=7)
            specs = [make_inner_spec(crossing, label)
                     for label in fixed_point_labels(crossing.git, crossing.A_plus)
                     if label.delta not in crossing.A_minus.minimal]
            for resid in gkz_ode_residual(inner_series(specs, 40, lams), specs, lams):
                assert resid < 1e-12
                worst = max(worst, resid)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report("8 series ODE", "max relative residual %.2e in %.1fs" % (worst, elapsed))


def test_criterion_9_lift_independence():
    start = time.monotonic()
    for _name, wc, _case in _crossings():
        lam = generic_lambdas(wc, 1, seed=7)[0]
        for pair in next_to_pairs(wc):
            assert all(lift_invariance_check(wc, pair, [lam], tol=1e-12))
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report("9 lift independence", "all next-to pairs at 1e-12")


def test_criterion_10_determinism(config_dir):
    def run(args):
        return subprocess.run(
            [sys.executable, "-m", "wallcross.cli"] + args, capture_output=True, text=True
        ).stdout

    for cfg in ("conifold.json", "resolution.json", "gerbe_flop.json"):
        for cmd in (["analyze"], ["verify", "lifts"]):
            args = cmd + ["--config", str(config_dir / cfg), "--json"]
            first, second = run(args), run(args)
            assert first and first == second
            assert json.loads(first)["seed"] == 7
    _report("10 determinism", "byte-identical JSON reports across repeated runs")
