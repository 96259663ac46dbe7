"""Wall-crossing families beyond the three bundled examples.

These exercise paths the bundled examples leave cold: nontrivial sectors on
the plus side (the II-ii direction, where the connection coefficients carry
sector phases in their sine ratios), order-three root averaging, and a
rank-two flop with several wall anticone pairs.
"""

import cmath
import math
from fractions import Fraction

import pytest

from helpers import assert_sigma_transition, continuation_numeric, oracle_fm_transform
from wallcross.gitfan import (
    box_elements,
    fixed_point_labels,
    make_git,
    next_to_pairs,
    wall_crossing,
)
from wallcross.hypergeom import (
    conifold_point,
    generic_lambdas,
    gkz_ode_residual,
    inner_series,
    lambda_matrix,
    make_inner_spec,
    w_constant,
)
from wallcross.ktheory import fm_transform, minus_basis, verify_pairing_preserved, verify_uhfm
from wallcross.mellinbarnes import (
    continuation_coefficient,
    lift_invariance_check,
    verify_residue_identity,
)

FAMILIES = {
    "swapped_resolution": ([(1,), (1,), (-2,)], (-1,), (1,), "II-ii"),
    "local_plane": ([(1,), (1,), (1,), (-3,)], (1,), (-1,), "II-i"),
    "swapped_local_plane": ([(1,), (1,), (1,), (-3,)], (-1,), (1,), "II-ii"),
    "flop_times_line": (
        [(1, 0), (1, 0), (-1, 0), (-1, 0), (0, 1), (0, 1)],
        (1, 1),
        (-1, 1),
        "I",
    ),
}


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def family(request):
    D, wp, wm, case = FAMILIES[request.param]
    wc = wall_crossing(make_git(D), wp, wm)
    assert wc.case == case
    return wc


def test_local_plane_combinatorics():
    git = make_git([(1,), (1,), (1,), (-3,)])
    wc = wall_crossing(git, (1,), (-1,))
    box = box_elements(git, wc.A_minus)
    assert [(s.f, s.age) for s in box] == [
        ((Fraction(0),), Fraction(0)),
        ((Fraction(1, 3),), Fraction(1)),
        ((Fraction(2, 3),), Fraction(2)),
    ]
    assert conifold_point(wc) == Fraction(-1, 27)
    assert w_constant(wc) == 2
    assert len(next_to_pairs(wc)) == 9


def test_plus_side_sectors_present():
    # the II-ii families put the nontrivial sectors on the plus side
    wc = wall_crossing(make_git([(1,), (1,), (-2,)]), (-1,), (1,))
    labels = fixed_point_labels(wc.git, wc.A_plus)
    assert any(not l.sector.is_zero for l in labels)


def test_headline_transform(family):
    lams = generic_lambdas(family, 8, seed=7)
    rep = verify_uhfm(family, lams)
    assert rep.max_residual < 1e-9


def test_coefficients_match_numeric_oracle(family):
    c = abs(float(conifold_point(family)))
    w = w_constant(family)
    x_out = 3.0 * c * cmath.exp(1j * math.pi * w)
    for lam in generic_lambdas(family, 2, seed=11):
        for pair in next_to_pairs(family):
            closed = continuation_coefficient(family, pair).value(lambda_matrix([lam]))[0, 0]
            numeric = continuation_numeric(family, pair, x_out, lam)
            assert abs(closed - numeric) < 1e-7 * max(1.0, abs(closed))


def test_residue_identity(family):
    c = abs(float(conifold_point(family)))
    w = w_constant(family)
    x_in = 0.3 * c * cmath.exp(1j * math.pi * w)
    x_out = 3.0 * c * cmath.exp(1j * math.pi * w)
    lam = generic_lambdas(family, 1, seed=13)[0]
    for label in fixed_point_labels(family.git, family.A_plus):
        if label.delta in family.A_minus.minimal:
            continue
        rep, = verify_residue_identity(family, [label], x_in, x_out, [lam])
        assert rep.residual_inside < 1e-7
        assert rep.residual_outside < 1e-7


def test_pairing_preserved(family):
    lam = generic_lambdas(family, 1, seed=17)[0]
    assert verify_pairing_preserved(family, lam, 1.1 + 0.13j) < 1e-8


def test_lift_invariance(family):
    lam = generic_lambdas(family, 1, seed=19)[0]
    for pair in next_to_pairs(family):
        assert all(lift_invariance_check(family, pair, [lam]))


def test_series_ode(family):
    lam = generic_lambdas(family, 1, seed=23)[0]
    for label in fixed_point_labels(family.git, family.A_plus):
        if label.delta in family.A_minus.minimal:
            continue
        spec = make_inner_spec(family, label)
        resid, = gkz_ode_residual(inner_series([spec], 30, [lam]), [spec], [lam])
        assert resid < 1e-11


def test_order_three_averaging_integral():
    wc = wall_crossing(make_git([(1,), (1,), (1,), (-3,)]), (1,), (-1,))
    for delta, rho in minus_basis(wc):
        image = fm_transform(wc, delta, rho)
        assert image.terms, "transform image must be nonzero"
        # the root average keeps the t powers divisible by 3, as the oracle's
        # product over Laurent polynomials in the S_j and t does
        assert image == oracle_fm_transform(wc, delta, rho)


@pytest.mark.parametrize("n", range(4, 10))
def test_fm_closed_form_on_local_projective_space(n):
    # l = n + 1, and n_T = rho.e - |T| falls below zero for large sets T
    wc = wall_crossing(make_git([(1,)] * (n + 1) + [(-(n + 1),)]), (1,), (-1,))
    assert -wc.pair_e(n + 1) == n + 1
    for delta, rho in minus_basis(wc):
        assert fm_transform(wc, delta, rho) == oracle_fm_transform(wc, delta, rho)


def test_fm_closed_form_on_the_gerbe_flop(gerbe_flop):
    for delta, rho in minus_basis(gerbe_flop):
        assert fm_transform(gerbe_flop, delta, rho) == oracle_fm_transform(gerbe_flop, delta, rho)


def test_skew_anticone_crossing_identities():
    # regression: sector classes on skew anticone matrices (order four with a
    # non-symmetric pairing) feed the transform and the pairing correctly
    git = make_git([(-1, -2), (2, 2), (-1, 1), (1, 0), (-1, -1)])
    wc = wall_crossing(git, (Fraction(-5, 4), Fraction(1)), (Fraction(-3, 4), Fraction(1)))
    assert len(minus_basis(wc)) == 4 + 1  # isotropy orders of the two minus points
    lams = generic_lambdas(wc, 3, seed=7)
    assert verify_uhfm(wc, lams).max_residual < 1e-9
    assert verify_pairing_preserved(wc, lams[0], 1.07 + 0.11j) < 1e-8


def test_zero_character_crossing_identities():
    # a character pairing to zero with everything is a free direction and
    # must ride through every sum untouched
    git = make_git([(-1, 1), (-2, 2), (-2, 3), (-1, 0), (0, 0)])
    wc = wall_crossing(git, (Fraction(-7), Fraction(29, 4)), (Fraction(-7), Fraction(27, 4)))
    assert wc.case == "III"
    lams = generic_lambdas(wc, 3, seed=7)
    assert verify_uhfm(wc, lams).max_residual < 1e-9
    assert verify_pairing_preserved(wc, lams[0], 1.07 + 0.11j) < 1e-8


def test_randomized_crossings_full_stack():
    # seeded random crepant data driven through frames, transition identity,
    # transform compatibility and the continuation oracle
    import random
    import sys

    sys.path.insert(0, "tests")
    from helpers import random_crepant_crossing
    from wallcross.gitfan import wall_frame
    from wallcross.hypergeom import PoleCollision
    from wallcross.ktheory import verify_uhfm as _uhfm, minus_basis as _basis

    rng = random.Random(987)
    checked = 0
    for _ in range(25):
        wc = random_crepant_crossing(rng, max_r=2, max_m=5)
        assert_sigma_transition(wc, wall_frame(wc))
        if len(_basis(wc)) > 10:
            continue
        try:
            lams = generic_lambdas(wc, 2, seed=2000 + checked)
        except PoleCollision:
            continue
        assert _uhfm(wc, lams).max_residual < 1e-9
        if next_to_pairs(wc):
            import cmath
            import math

            c = abs(float(conifold_point(wc)))
            w = w_constant(wc)
            x_out = 3.0 * c * cmath.exp(1j * math.pi * w)
            for pair in next_to_pairs(wc)[:2]:
                closed = continuation_coefficient(wc, pair).value(lambda_matrix(lams[:1]))[0, 0]
                numeric = continuation_numeric(wc, pair, x_out, lams[0])
                assert abs(closed - numeric) < 1e-7 * max(1.0, abs(closed))
        checked += 1
    assert checked >= 12
