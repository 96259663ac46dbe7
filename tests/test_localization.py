import random
from fractions import Fraction

import pytest

from helpers import in_plus_coordinates, random_crepant_crossing
from wallcross.gitfan import fixed_point_labels, next_to_pairs, wall_frame
from wallcross.localization import (
    LinearForm,
    NotAdjacentAnticones,
    normal_weights,
    restrict_u,
    rho_restrict,
    sigma_restrict,
    verify_weight_transition,
    zero_form,
)
from wallcross.lattice import vdot


def form(m, **coeffs):
    out = [Fraction(0)] * m
    for name, value in coeffs.items():
        out[int(name[1:]) - 1] = Fraction(value)
    return LinearForm(tuple(out))


def test_restrict_u_conifold(conifold):
    u = restrict_u(conifold.git, (0,))
    assert u[2] == form(4, L1=1, L3=1)
    assert u[0].is_zero
    assert u[1] == form(4, L1=-1, L2=1)


def test_restrict_u_resolution(resolution):
    u = restrict_u(resolution.git, (0,))
    assert u[2] == form(3, L1=2, L3=1)
    u_minus = restrict_u(resolution.git, (2,))
    assert u_minus[0] == form(3, L1=1, L3=Fraction(1, 2))


def test_vanishing_iff_in_delta(all_examples):
    for wc in all_examples.values():
        for A in (wc.A_plus, wc.A_minus):
            for delta in A.minimal:
                u = restrict_u(wc.git, delta)
                for j in range(wc.git.m):
                    assert u[j].is_zero == (j in delta)


def test_weight_transition_conifold(conifold):
    assert verify_weight_transition(conifold, (0,), (2,), 1)
    assert verify_weight_transition(conifold, (0,), (2,), 0)


def test_weight_transition_all_examples(all_examples):
    for wc in all_examples.values():
        seen = set()
        for lp, lm in next_to_pairs(wc):
            if (lp.delta, lm.delta) in seen:
                continue
            seen.add((lp.delta, lm.delta))
            for j in range(wc.git.m):
                assert verify_weight_transition(wc, lp.delta, lm.delta, j)


def test_weight_transition_randomized():
    rng = random.Random(77)
    for _ in range(20):
        wc = random_crepant_crossing(rng)
        seen = set()
        for lp, lm in next_to_pairs(wc):
            if (lp.delta, lm.delta) in seen:
                continue
            seen.add((lp.delta, lm.delta))
            for j in range(wc.git.m):
                assert verify_weight_transition(wc, lp.delta, lm.delta, j)


def test_weight_transition_rejects_non_adjacent(conifold):
    with pytest.raises(NotAdjacentAnticones):
        verify_weight_transition(conifold, (0,), (1,), 2)


def test_sigma_conifold_log_coefficient(conifold):
    sig = sigma_restrict(conifold, (0,), "plus")
    assert sig.log_coeffs[0] == form(4, L1=-1)
    assert sig.constant == LinearForm((Fraction(1),) * 4)


def test_sigma_common_anticone_agrees(gerbe_flop):
    frame = wall_frame(gerbe_flop)
    sig_p = sigma_restrict(gerbe_flop, (0, 2), "plus")
    sig_m = in_plus_coordinates(sigma_restrict(gerbe_flop, (0, 2), "minus"), frame.change)
    assert sig_p.log_coeffs == sig_m.log_coeffs
    assert sig_p.constant == sig_m.constant


def test_sigma_wall_transition(all_examples):
    # the difference of restrictions across the wall is the transition class
    # times the wall monomial's log, in shared coordinates
    for wc in all_examples.values():
        frame = wall_frame(wc)
        seen = set()
        for lp, lm in next_to_pairs(wc):
            if (lp.delta, lm.delta) in seen:
                continue
            seen.add((lp.delta, lm.delta))
            j_minus = next(i for i in lm.delta if i not in lp.delta)
            u = restrict_u(wc.git, lp.delta)[j_minus]
            sig_p = sigma_restrict(wc, lp.delta, "plus")
            sig_m = in_plus_coordinates(sigma_restrict(wc, lm.delta, "minus"), frame.change)
            for k in range(wc.git.r):
                ratio = Fraction(int(vdot(frame.sfp_plus[k], wc.e)), wc.pair_e(j_minus))
                expected = u.scale(ratio)
                assert sig_p.log_coeffs[k] - sig_m.log_coeffs[k] == expected


def test_sigma_conifold_transition_value(conifold):
    # explicit form of the transition for the basic flop
    frame = wall_frame(conifold)
    sig_p = sigma_restrict(conifold, (0,), "plus")
    sig_m = in_plus_coordinates(sigma_restrict(conifold, (2,), "minus"), frame.change)
    diff = sig_p.log_coeffs[0] - sig_m.log_coeffs[0]
    assert diff == form(4, L1=-1, L3=-1)


def test_normal_weights_conifold(conifold):
    label = fixed_point_labels(conifold.git, conifold.A_plus)[0]
    nw = normal_weights(conifold.git, label)
    forms = {str(f) for _j, f in nw.fixed}
    assert forms == {"-L1+L2", "L1+L3", "L1+L4"}
    assert nw.moving == ()


def test_normal_weights_twisted_sector(resolution):
    labels = fixed_point_labels(resolution.git, resolution.A_minus)
    twisted = [l for l in labels if not l.sector.is_zero][0]
    nw = normal_weights(resolution.git, twisted)
    assert nw.fixed == ()
    moving = {(str(f), fj) for _j, f, fj in nw.moving}
    assert moving == {
        ("L1+1/2*L3", Fraction(1, 2)),
        ("L2+1/2*L3", Fraction(1, 2)),
    }


def test_tangent_sum_rule(all_examples):
    # the sum of nonzero restrictions equals the restricted tangent class
    for wc in all_examples.values():
        for A, S in ((wc.A_plus, wc.S_plus), (wc.A_minus, wc.S_minus)):
            for delta in A.minimal:
                u = restrict_u(wc.git, delta)
                total = zero_form(wc.git.m)
                for i in range(wc.git.m):
                    if i not in S:
                        total = total + u[i]
                assert total == rho_restrict(wc.git, delta)
