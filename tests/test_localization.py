import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from helpers import (
    fraction_coeffs,
    in_plus_coordinates,
    oracle_restrict_u,
    random_crepant_crossing,
    vadd,
    vscale,
    vsub,
)
from wallcross.gitfan import fixed_point_labels, next_to_pairs, wall_frame
from wallcross.localization import (
    LinearForm,
    NotAdjacentAnticones,
    normal_weights,
    restrict_u,
    rho_restrict,
    sigma_restrict,
    verify_weight_transition,
)
from wallcross.lattice import vdot


def form(m, **coeffs):
    """Fraction coefficients, L1=... naming the nonzero ones."""
    out = [Fraction(0)] * m
    for name, value in coeffs.items():
        out[int(name[1:]) - 1] = Fraction(value)
    return tuple(out)


def test_restrict_u_conifold(conifold):
    u = restrict_u(conifold.git, (0,))
    assert fraction_coeffs(u[2]) == form(4, L1=1, L3=1)
    assert u[0].is_zero
    assert fraction_coeffs(u[1]) == form(4, L1=-1, L2=1)


def test_restrict_u_resolution(resolution):
    u = restrict_u(resolution.git, (0,))
    assert fraction_coeffs(u[2]) == form(3, L1=2, L3=1)
    u_minus = restrict_u(resolution.git, (2,))
    assert u_minus[0] == LinearForm((2, 0, 1), 2)
    assert fraction_coeffs(u_minus[0]) == form(3, L1=1, L3=Fraction(1, 2))


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


def test_weight_transition_matches_the_fraction_residual(all_examples):
    """The cross-multiplied check against the transition residual of
    oracle_restrict_u in Fraction arithmetic, as given and with the ratio of
    one j off both anticones moved by one, where the check must fail."""
    rng = random.Random(78)
    crossings = list(all_examples.values()) + [random_crepant_crossing(rng) for _ in range(10)]
    failed = 0
    for wc in crossings:
        for dp, dm in sorted({(lp.delta, lm.delta) for lp, lm in next_to_pairs(wc)}):
            j_minus = next(i for i in dm if i not in dp)
            u_plus, u_minus = oracle_restrict_u(wc.git, dp), oracle_restrict_u(wc.git, dm)
            for j in range(wc.git.m):
                for moved in (0, 1) if j not in dp + dm else (0,):
                    # pairing D_j . e moved by moved * D_{j-} . e moves the ratio by moved
                    pair_e = [wc.pair_e(i) + (moved * wc.pair_e(j_minus) if i == j else 0)
                              for i in range(wc.git.m)]
                    ratio = Fraction(pair_e[j], pair_e[j_minus])
                    residual = vsub(u_plus[j], vadd(u_minus[j], vscale(ratio, u_plus[j_minus])))
                    shifted = SimpleNamespace(git=wc.git, pair_e=pair_e.__getitem__)
                    assert verify_weight_transition(shifted, dp, dm, j) == (not any(residual))
                    assert any(residual) == bool(moved)
                    failed += bool(moved)
    assert failed > 0


def test_weight_transition_rejects_non_adjacent(conifold):
    with pytest.raises(NotAdjacentAnticones):
        verify_weight_transition(conifold, (0,), (1,), 2)


def test_sigma_conifold_log_coefficient(conifold):
    sig = sigma_restrict(conifold, (0,), "plus")
    assert fraction_coeffs(sig.log_coeffs[0]) == form(4, L1=-1)
    assert sig.constant == LinearForm((1,) * 4)


def test_sigma_common_anticone_agrees(gerbe_flop):
    frame = wall_frame(gerbe_flop)
    sig_p = sigma_restrict(gerbe_flop, (0, 2), "plus")
    sig_m = sigma_restrict(gerbe_flop, (0, 2), "minus")
    assert tuple(map(fraction_coeffs, sig_p.log_coeffs)) == in_plus_coordinates(sig_m, frame.change)
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
            u = fraction_coeffs(restrict_u(wc.git, lp.delta)[j_minus])
            sig_p = sigma_restrict(wc, lp.delta, "plus")
            sig_m = in_plus_coordinates(sigma_restrict(wc, lm.delta, "minus"), frame.change)
            for k in range(wc.git.r):
                ratio = Fraction(int(vdot(frame.sfp_plus[k], wc.e)), wc.pair_e(j_minus))
                expected = vscale(ratio, u)
                assert vsub(fraction_coeffs(sig_p.log_coeffs[k]), sig_m[k]) == expected


def test_sigma_conifold_transition_value(conifold):
    # explicit form of the transition for the basic flop
    frame = wall_frame(conifold)
    sig_p = sigma_restrict(conifold, (0,), "plus")
    sig_m = in_plus_coordinates(sigma_restrict(conifold, (2,), "minus"), frame.change)
    diff = vsub(fraction_coeffs(sig_p.log_coeffs[0]), sig_m[0])
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
        ("L1+1/2*L3", (1, 2)),
        ("L2+1/2*L3", (1, 2)),
    }


def test_tangent_sum_rule(all_examples):
    # the sum of nonzero restrictions equals the restricted tangent class
    for wc in all_examples.values():
        for A, S in ((wc.A_plus, wc.S_plus), (wc.A_minus, wc.S_minus)):
            for delta in A.minimal:
                u = restrict_u(wc.git, delta)
                total = form(wc.git.m)
                for i in range(wc.git.m):
                    if i not in S:
                        total = vadd(total, fraction_coeffs(u[i]))
                assert total == fraction_coeffs(rho_restrict(wc.git, delta))
