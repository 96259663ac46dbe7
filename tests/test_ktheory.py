import cmath
import functools
import math
import pathlib
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from helpers import (
    RANK_4_CONFIG,
    committed_crossings,
    frac_part,
    kc_dual,
    kc_line,
    kc_mul,
    kc_one,
    kc_s,
    kc_zero,
    kclass,
    lift_numerators,
    oracle_describe,
    oracle_gram,
    oracle_normal_factors,
    oracle_restricted_basis,
    rank_4_crossing,
    reference_gram,
)
from wallcross import ktheory
from wallcross.gitfan import (
    box_elements,
    compatible_minus_lift,
    fixed_point_labels,
    make_git,
    next_to_pairs,
    validate_stability,
    wall_crossing,
)
from wallcross.hypergeom import TWO_PI_I, generic_lambdas, log_gamma
from wallcross.ktheory import (
    KClass,
    ResonantSample,
    RestrictedBasis,
    basis_e,
    canonical_rho_lifts,
    chern_restrict,
    euler_pairing,
    eval_terms,
    fm_transform,
    framing_restrict,
    gamma_restrict,
    lambda_matrix,
    localization_gram,
    minus_basis,
    pairing_residuals,
    restriction_terms,
    uhfm_sensitivity,
    verify_pairing_preserved,
    verify_uhfm,
)
from wallcross.lattice import anticone_inverse, vdot
from wallcross.localization import restrict_u
from wallcross.mellinbarnes import coefficient_values, continuation_coefficient, continuation_matrix

ROOT = pathlib.Path(__file__).parent.parent


def test_basis_e_structure(conifold):
    e = basis_e(conifold.git, (2,), (0,))
    # product of three binomial factors
    assert len(e.terms) == 8
    s_indices = {j for s, _c in e.terms for j in range(4) if s[j]}
    assert s_indices == {0, 1, 3}


def test_basis_e_restriction_at_own_point(conifold):
    lam = generic_lambdas(conifold, 1, seed=3)[0]
    label = [l for l in fixed_point_labels(conifold.git, conifold.A_minus) if l.delta == (2,)][0]
    e = basis_e(conifold.git, (2,), (0,))
    got = chern_restrict(conifold.git, e, label, lam)
    u = restrict_u(conifold.git, (2,))
    expected = 1.0
    for j in (0, 1, 3):
        expected *= 1 - cmath.exp(-u[j](lam))
    assert abs(got - expected) < 1e-13 * abs(expected)


def test_basis_e_vanishes_elsewhere(gerbe_flop):
    lam = generic_lambdas(gerbe_flop, 1, seed=3)[0]
    e = basis_e(gerbe_flop.git, (1, 2), (0, 0))
    other = [l for l in fixed_point_labels(gerbe_flop.git, gerbe_flop.A_minus) if l.delta == (0, 2)]
    for label in other:
        assert chern_restrict(gerbe_flop.git, e, label, lam) == 0


def test_fm_common_anticone_is_identity(gerbe_flop):
    for rho in canonical_rho_lifts(gerbe_flop.git, (0, 2)):
        image = fm_transform(gerbe_flop, (0, 2), rho)
        assert image == basis_e(gerbe_flop.git, (0, 2), rho)


def test_fm_conifold_formula(conifold):
    # (1 - S_4)(1 - S_3 S_1)(1 - S_3 S_2)
    image = fm_transform(conifold, (2,), (0,))
    one = (0, 0, 0, 0)
    expected = kc_mul(kclass((0,), {one: 1, (0, 0, 0, 1): -1}),
                      kclass((0,), {one: 1, (1, 0, 1, 0): -1}),
                      kclass((0,), {one: 1, (0, 1, 1, 0): -1}))
    assert len(expected.terms) == 8
    assert image == expected


def test_fm_resolution_integral_after_averaging(resolution):
    # (1 + t^-1)(1 - t^-1 S_1)(1 - t^-1 S_2) averaged over the square roots
    # keeps the exponents 0 and -2 only: 1 + S_3 (S_1 S_2 - S_1 - S_2)
    image = fm_transform(resolution, (2,), (0,))
    expected = kclass((0,), {(0, 0, 0): 1, (1, 1, 1): 1, (1, 0, 1): -1, (0, 1, 1): -1})
    assert image == expected


def test_chern_restrict_examples(conifold):
    lam = generic_lambdas(conifold, 1, seed=5)[0]
    label = fixed_point_labels(conifold.git, conifold.A_plus)[0]
    assert label.delta == (0,)
    got = chern_restrict(conifold.git, kc_s(conifold.git, 2), label, lam)
    assert abs(got - cmath.exp(-(lam[0] + lam[2]))) < 1e-14


def test_chern_restrict_multiplicative(resolution):
    lam = generic_lambdas(resolution, 1, seed=5)[0]
    label = fixed_point_labels(resolution.git, resolution.A_minus)[1]
    # single-character classes, which products and duals keep single-character
    a = kclass((1,), {(0, 0, 0): 1, (1, 0, 0): -2})  # L(1) (1 - 2 S_1)
    b = kc_mul(kc_line(resolution.git, (-2,)),
               kclass((0,), {(0, 1, 0): 1, (0, 0, -1): 1}))  # L(-2) (S_2 + S_3^-1)
    lhs = chern_restrict(resolution.git, kc_mul(a, b), label, lam)
    rhs = chern_restrict(resolution.git, a, label, lam) * chern_restrict(
        resolution.git, b, label, lam
    )
    assert abs(lhs - rhs) < 1e-13 * max(1.0, abs(rhs))


def _t_restriction(wc, lp, lm, lam):
    """The root generator t at the plus point lp, for the next-to partner lm:
    exp(2 pi i zeta) exp(2 pi i D_{j-} . f_plus / l) exp(u_{j-}(delta_plus) / l),
    with zeta = {-D_{j-} . f_minus / l} for the compatible minus lift."""
    git = wc.git
    j_minus = next(i for i in lm.delta if i not in lp.delta)
    l = -wc.pair_e(j_minus)
    zeta = frac_part(-vdot(git.D[j_minus], compatible_minus_lift(wc, lp, lm)) / l)
    u = restrict_u(git, lp.delta)
    return cmath.exp(TWO_PI_I * complex(zeta)) * cmath.exp(
        TWO_PI_I * complex(vdot(git.D[j_minus], lp.f)) / l
    ) * cmath.exp(u[j_minus](lam) / l)


def test_chern_matching_across_wall(all_examples):
    # the twisted line bundle and divisor-bundle restrictions match across
    # the wall through the root generator
    for wc in all_examples.values():
        git = wc.git
        lam = generic_lambdas(wc, 2, seed=7)
        for lp, lm in next_to_pairs(wc):
            lift_minus = compatible_minus_lift(wc, lp, lm)
            for rho in canonical_rho_lifts(git, lm.delta):
                rho_e = int(vdot(rho, wc.e))
                for lamv in lam:
                    lhs = chern_restrict(git, kc_line(git, rho), lp, lamv) * _t_restriction(
                        wc, lp, lm, lamv) ** rho_e
                    rhs = eval_terms(
                        restriction_terms(git, kc_line(git, rho), lm.delta, *lift_numerators(lift_minus)), lamv)
                    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))
            # second display: S_j t^{-D_j e} on the plus side vs S_j minus
            for j in range(git.m):
                for lamv in lam:
                    lhs = chern_restrict(git, kc_s(git, j), lp, lamv) * _t_restriction(
                        wc, lp, lm, lamv) ** -wc.pair_e(j)
                    rhs = eval_terms(
                        restriction_terms(git, kc_s(git, j), lm.delta, *lift_numerators(lift_minus)), lamv)
                    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_averaged_prefactor_matches_coefficient(all_examples):
    # restriction of the root-averaged prefactor equals the connection
    # coefficient itself
    for wc in all_examples.values():
        git = wc.git
        lam = generic_lambdas(wc, 3, seed=11)
        for lp, lm in next_to_pairs(wc):
            j_minus = next(i for i in lm.delta if i not in lp.delta)
            l = -wc.pair_e(j_minus)
            lift_minus = compatible_minus_lift(wc, lp, lm)
            coeff = continuation_coefficient(wc, (lp, lm))
            for lamv in lam:
                t_val = _t_restriction(wc, lp, lm, lamv)
                s_val = chern_restrict(git, kc_s(git, j_minus), lp, lamv)
                value = (1 - s_val) / (l * (1 - 1 / t_val))
                for j in wc.M_minus:
                    if j == j_minus:
                        continue
                    sp = chern_restrict(git, kc_s(git, j), lp, lamv)
                    sm = eval_terms(
                        restriction_terms(git, kc_s(git, j), lm.delta, *lift_numerators(lift_minus)), lamv)
                    value *= (1 - sp) / (1 - sm)
                assert abs(value - coeff.value(lambda_matrix([lamv]))[0, 0]) < 1e-10 * max(1.0, abs(value))


def test_restriction_ignores_integer_shifts_of_the_lift(all_examples):
    # every exponent of a class is an integer, so its restriction depends on
    # the sector lift only modulo Z^r: the partner's own sector f_minus and
    # the coefficient's compatible lift give the same triples
    for wc in all_examples.values():
        git = wc.git
        shifts = [tuple(int(i == k) for i in range(git.r)) for k in range(git.r)]
        shifts += [tuple(3 - 2 * i for i in range(git.r)), tuple(-5 for _ in range(git.r))]
        classes = [basis_e(git, d, rho) for d, rho in minus_basis(wc)]
        classes += [fm_transform(wc, d, rho) for d, rho in minus_basis(wc)]
        checked = 0
        for lp, lm in next_to_pairs(wc):
            s, n, _c = continuation_coefficient(wc, (lp, lm)).lift_minus
            for cls in classes:
                ref = restriction_terms(git, cls, lm.delta, lm.sector.num, lm.sector.den)
                assert restriction_terms(git, cls, lm.delta, n, s) == ref
                for v in shifts:
                    moved = tuple(x + y for x, y in zip(lm.f, v))
                    assert restriction_terms(git, cls, lm.delta, *lift_numerators(moved)) == ref
                    checked += 1
        assert checked > 0


def test_gamma_restrict_trivial():
    git = make_git([(1,), (1,)])
    A = validate_stability(git, (1,))
    label = fixed_point_labels(git, A)[0]
    assert abs(gamma_restrict(git, label, (0j, 0j), z=1.0) - 1.0) < 1e-14


def test_gamma_restrict_against_mpmath(resolution):
    mpmath.mp.dps = 25
    lam = generic_lambdas(resolution, 1, seed=13)[0]
    z = 1.2 - 0.3j
    labels = fixed_point_labels(resolution.git, resolution.A_minus)
    twisted = [l for l in labels if not l.sector.is_zero][0]
    got = gamma_restrict(resolution.git, twisted, lam, z=z)
    u = restrict_u(resolution.git, twisted.delta)
    expected = 1.0
    for j in range(resolution.git.m):
        if j in twisted.delta:
            continue
        fj = frac_part(vdot(resolution.git.D[j], twisted.f))
        arg = 1 - complex(fj) + u[j](lam) / z
        expected *= complex(mpmath.gamma(mpmath.mpc(arg.real, arg.imag)))
    assert abs(got - expected) < 1e-12 * abs(expected)
    assert frac_part(vdot(resolution.git.D[0], twisted.f)) == Fraction(1, 2)


def test_gamma_reflection_identity(all_examples):
    # product of the dual-bundle and bundle classes against the rotated
    # orbifold Todd form, factor by factor at each fixed point
    for wc in all_examples.values():
        lams = generic_lambdas(wc, 10, seed=17)
        for label in fixed_point_labels(wc.git, wc.A_plus):
            u = restrict_u(wc.git, label.delta)
            for lam in lams:
                lhs = 1.0
                rhs = 1.0
                for j in range(wc.git.m):
                    if j in label.delta:
                        continue
                    fj = frac_part(vdot(wc.git.D[j], label.f))
                    fbar = frac_part(-fj)
                    uj = u[j](lam)
                    lhs *= np.exp(log_gamma(1 - complex(fbar) - uj) + log_gamma(1 - complex(fj) + uj))
                    if fj == 0:
                        rhs *= (
                            TWO_PI_I
                            * uj
                            * cmath.exp(-1j * math.pi * uj)
                            / (1 - cmath.exp(-TWO_PI_I * uj))
                        )
                    else:
                        rhs *= (
                            TWO_PI_I
                            * cmath.exp(-1j * math.pi * (complex(fbar) + uj))
                            / (1 - cmath.exp(-TWO_PI_I * (complex(fbar) + uj)))
                        )
                assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_framing_structure_sheaf(conifold):
    label = fixed_point_labels(conifold.git, conifold.A_plus)[0]
    z = 0.8 + 0.4j
    fv = framing_restrict(conifold.git, kc_one(conifold.git), label, (0j,) * 4, z)
    dim = conifold.git.m - conifold.git.r
    assert abs(fv.value - z ** (dim / 2)) < 1e-13 * abs(fv.value)
    assert fv.s_power == Fraction(dim, 2)


def test_framing_homogeneity_contract(resolution):
    lam = generic_lambdas(resolution, 1, seed=19)[0]
    z = 1.1 + 0.2j
    s = 1.4 - 0.3j
    label = fixed_point_labels(resolution.git, resolution.A_plus)[0]
    E = basis_e(resolution.git, label.delta, (1,))
    base = framing_restrict(resolution.git, E, label, lam, z)
    log_z = cmath.log(z)
    log_s = cmath.log(s)
    scaled = framing_restrict(
        resolution.git, E, label, tuple(s * li for li in lam), s * z, log_z=log_z + log_s
    )
    u = restrict_u(resolution.git, label.delta)
    rho_val = sum(u[j](lam) for j in range(resolution.git.m) if j not in label.delta)
    expected = base.value * cmath.exp(complex(base.s_power) * log_s) * cmath.exp(
        (rho_val / z) * log_s
    )
    assert abs(scaled.value - expected) < 1e-12 * abs(expected)


def test_euler_pairing_projective_line():
    git = make_git([(1,), (1,)])
    A = validate_stability(git, (1,))
    lams = generic_lambdas_plain(git, 10, seed=23)
    one = kc_one(git)
    for lam in lams:
        assert abs(euler_pairing(git, A, one, one, lam) - 1) < 1e-12
        expected = cmath.exp(-lam[0]) + cmath.exp(-lam[1])
        assert abs(euler_pairing(git, A, one, kc_line(git, (1,)), lam) - expected) < 1e-12
        assert abs(euler_pairing(git, A, one, kc_line(git, (-1,)), lam)) < 1e-12
        # rank-two twist: three section monomials
        exp2 = (
            cmath.exp(-2 * lam[0])
            + cmath.exp(-lam[0] - lam[1])
            + cmath.exp(-2 * lam[1])
        )
        assert abs(euler_pairing(git, A, one, kc_line(git, (2,)), lam) - exp2) < 1e-12


def generic_lambdas_plain(git, count, seed):
    from helpers import oracle_sample_lambdas

    return oracle_sample_lambdas(git.m, count, seed)


def test_euler_pairing_gerbe_line():
    git = make_git([(2,), (2,)])
    A = validate_stability(git, (1,))
    lams = generic_lambdas_plain(git, 10, seed=29)
    one = kc_one(git)
    for lam in lams:
        assert anticone_inverse(git.D, (0,))[1] == 2
        assert abs(euler_pairing(git, A, one, one, lam) - 1) < 1e-12
        # odd characters have no invariant sections
        assert abs(euler_pairing(git, A, one, kc_line(git, (1,)), lam)) < 1e-12
        expected = cmath.exp(-lam[0]) + cmath.exp(-lam[1])
        assert abs(euler_pairing(git, A, one, kc_line(git, (2,)), lam) - expected) < 1e-12


def test_euler_pairing_z_substitution(conifold):
    lam = generic_lambdas(conifold, 1, seed=31)[0]
    z = 1.3 + 0.4j
    E = basis_e(conifold.git, (2,), (0,))
    direct = euler_pairing(conifold.git, conifold.A_minus, E, E, lam, z=z)
    substituted = euler_pairing(
        conifold.git, conifold.A_minus, E, E, tuple(TWO_PI_I * li / z for li in lam)
    )
    assert abs(direct - substituted) < 1e-12 * max(1.0, abs(direct))


def test_euler_pairing_resonance_guard():
    git = make_git([(1,), (1,)])
    A = validate_stability(git, (1,))
    one = kc_one(git)
    with pytest.raises(ResonantSample):
        euler_pairing(git, A, one, one, (0.1 + 0j, 0.1 + 0j))


def test_verify_uhfm_all_examples(all_examples):
    for wc in all_examples.values():
        lams = generic_lambdas(wc, 5, seed=37)
        rep = verify_uhfm(wc, lams)
        assert rep.max_residual < 1e-9


def test_uhfm_common_rows_exact(gerbe_flop):
    # common-anticone fixed points compare the identical restriction on the
    # two sides; the residual there is exactly zero
    git = gerbe_flop.git
    lam = generic_lambdas(gerbe_flop, 1, seed=41)[0]
    for delta, rho in minus_basis(gerbe_flop):
        image = fm_transform(gerbe_flop, delta, rho)
        e_minus = basis_e(git, delta, rho)
        for label in fixed_point_labels(git, gerbe_flop.A_plus):
            if label.delta not in gerbe_flop.A_minus.minimal:
                continue
            lhs = chern_restrict(git, image, label, lam)
            rhs = chern_restrict(git, e_minus, label, lam)
            assert abs(lhs - rhs) < 1e-13


def test_uhfm_sensitivity(all_examples):
    for wc in all_examples.values():
        lams = generic_lambdas(wc, 5, seed=43)
        assert uhfm_sensitivity(wc, lams, epsilon=1e-3) > 1e-5


def test_pairing_preserved(conifold, resolution):
    for wc in (conifold, resolution):
        lams = generic_lambdas(wc, 3, seed=47)
        for i, lam in enumerate(lams):
            z = 1.0 + 0.1 * (i + 1) + 0.05j
            assert verify_pairing_preserved(wc, lam, z) < 1e-8


def test_pairing_trivial_class(conifold):
    lam = generic_lambdas(conifold, 1, seed=53)[0]
    zero = kc_zero(conifold.git)
    val = euler_pairing(conifold.git, conifold.A_minus, zero, zero, lam, z=1.1)
    assert val == 0


def test_dual_involution(conifold):
    e = basis_e(conifold.git, (2,), (0,))
    assert kc_dual(kc_dual(e)) == e


def test_unit_class_restricts_to_one(all_examples):
    for wc in all_examples.values():
        lam = generic_lambdas(wc, 1, seed=59)[0]
        for A in (wc.A_plus, wc.A_minus):
            for label in fixed_point_labels(wc.git, A):
                assert chern_restrict(wc.git, kc_one(wc.git), label, lam) == 1


def test_uhfm_sensitivity_scales_linearly(resolution):
    lams = generic_lambdas(resolution, 5, seed=61)
    r1 = uhfm_sensitivity(resolution, lams, epsilon=1e-3)
    r2 = uhfm_sensitivity(resolution, lams, epsilon=2e-3)
    assert abs(r2 / r1 - 2.0) < 1e-6


# ---------------------------------------------------------------------------
# the array paths against the scalar functions, which stay as oracles


def _restriction_cases(wc):
    """(label, lift, images) for every fixed point and lift at which the
    uhfm and pairing suites restrict the basis: its minus classes at the
    minus points and at next-to partners (compatible lifts), its images at
    the plus points."""
    cases = [(lab, lab.f, False) for lab in wc.labels_minus]
    cases += [(lab, lab.f, True) for lab in wc.labels_plus]
    cases += [(lm, compatible_minus_lift(wc, lp, lm), False) for lp, lm in next_to_pairs(wc)]
    return cases


def test_compiled_restrictions_match_chern_restrict(all_examples):
    # the factored restrictions and those of the dual classes, which the
    # Gram takes at (-num, -lams), against the expanded terms
    for wc in all_examples.values():
        git = wc.git
        basis = tuple(minus_basis(wc))
        lams = generic_lambdas(wc, 5, seed=67)
        restrict = {images: RestrictedBasis(wc, basis, lambda_matrix(lams), images) for images in (False, True)}
        for label, lift, images in _restriction_cases(wc):
            num, den = lift_numerators(lift)
            values, dual, _ = restrict[images].with_dual(label.delta, num, den)
            for b, (delta_b, rho) in enumerate(basis):
                cls = fm_transform(wc, delta_b, rho) if images else basis_e(git, delta_b, rho)
                terms = restriction_terms(git, cls, label.delta, num, den)
                terms_dual = restriction_terms(git, kc_dual(cls), label.delta, num, den)
                for s, lam in enumerate(lams):
                    ref = eval_terms(terms, lam)
                    assert abs(values[b, s] - ref) <= 1e-12 * abs(ref)
                    ref_dual = eval_terms(terms_dual, lam)
                    assert abs(dual[b, s] - ref_dual) <= 1e-12 * abs(ref_dual)


def _pairing_oracle(git, A, E, F, lam_eff):
    """The localization sum of restr(dual(E) * F), term by term in scalars."""
    integrand = kc_mul(kc_dual(E), F)
    total = 0j
    for delta in A.minimal:
        u = restrict_u(git, delta)
        for sec in box_elements(git, A):
            if not all(i in sec.I_f for i in delta):
                continue
            num = eval_terms(restriction_terms(git, integrand, delta, sec.num, sec.den), lam_eff)
            den = 1.0 + 0j
            for j in range(git.m):
                if j not in delta:
                    phase = cmath.exp(-TWO_PI_I * complex(frac_part(vdot(git.D[j], sec.f))))
                    den *= 1 - phase * cmath.exp(-u[j](lam_eff))
            total += num / (anticone_inverse(git.D, delta)[1] * den)
    return total


def test_gram_entries_match_euler_pairing(all_examples):
    for wc in all_examples.values():
        git = wc.git
        lams = generic_lambdas(wc, 2, seed=71)
        zs = [1.1 + 0.2j, 0.9 - 0.1j]
        basis = minus_basis(wc)
        for A, classes, images in (
            (wc.A_minus, [basis_e(git, d, rho) for d, rho in basis], False),
            (wc.A_plus, [fm_transform(wc, d, rho) for d, rho in basis], True),
        ):
            restrict = RestrictedBasis(wc, basis, lambda_matrix(lams, zs), images)
            gram, smallest = localization_gram(git, A, restrict.with_dual)
            assert (smallest > 1e-9).all()
            for s, (lam, z) in enumerate(zip(lams, zs)):
                lam_eff = tuple(TWO_PI_I * li / z for li in lam)
                # relative to the largest entry: some pairings vanish exactly
                scale = abs(gram[:, :, s]).max()
                for a, E in enumerate(classes):
                    for b, F in enumerate(classes):
                        ref = euler_pairing(git, A, E, F, lam, z=z)
                        oracle = _pairing_oracle(git, A, E, F, lam_eff)
                        assert abs(gram[a, b, s] - ref) <= 1e-12 * scale
                        assert abs(ref - oracle) <= 1e-12 * scale


def _perturbed_uhfm_residual(wc, lams, bump, epsilon):
    """Max uhfm residual with epsilon added to the coefficient of next-to
    pair number ``bump``, recomputed from scalar restrictions."""
    git = wc.git
    pairs = next_to_pairs(wc)
    worst = 0.0
    for delta, rho in minus_basis(wc):
        image = fm_transform(wc, delta, rho)
        e = basis_e(git, delta, rho)
        for lp in fixed_point_labels(git, wc.A_plus):
            for lam in lams:
                if lp.delta in wc.A_minus.minimal:
                    rhs = chern_restrict(git, e, lp, lam)
                else:
                    rhs = 0j
                    for q, (lp_q, lm) in enumerate(pairs):
                        if lp_q != lp:
                            continue
                        lift = compatible_minus_lift(wc, lp, lm)
                        value = continuation_coefficient(wc, (lp, lm), lp.f, lift).value(lambda_matrix([lam]))[0, 0]
                        if q == bump:
                            value += epsilon
                        rhs += value * eval_terms(
                            restriction_terms(git, e, lm.delta, *lift_numerators(lift)), lam)
                worst = max(worst, abs(chern_restrict(git, image, lp, lam) - rhs))
    return worst


def test_closed_form_sensitivity_matches_perturbed_rerun(all_examples):
    for wc in all_examples.values():
        lams = generic_lambdas(wc, 3, seed=73)
        brute = min(_perturbed_uhfm_residual(wc, lams, q, 1e-3)
                    for q in range(len(next_to_pairs(wc))))
        closed = verify_uhfm(wc, lams).sensitivity(1e-3)
        assert abs(closed - brute) <= 1e-9 * brute


@pytest.mark.parametrize("kind, crossings", [("identity", 8), ("coefficient", 17)])
def test_uhfm_applies_the_continuation_matrix(monkeypatch, kind, crossings):
    # with one cell of the printed matrix dropped, the row of that cell
    # keeps its continued value, so uhfm must read the matrix to pass
    checked = 0
    for wc in committed_crossings():
        matrix = continuation_matrix(wc)
        cell = next((c for c, k in matrix.kinds.items() if k == kind), None)
        if cell is None:
            continue
        doctored = replace(matrix, kinds={c: k for c, k in matrix.kinds.items() if c != cell},
                           coefficients={c: v for c, v in matrix.coefficients.items() if c != cell})
        monkeypatch.setattr(ktheory, "continuation_matrix", lambda wc, doctored=doctored: doctored)
        assert verify_uhfm(wc, generic_lambdas(wc, 3, seed=71)).max_residual > 1e-9
        monkeypatch.undo()
        checked += 1
    assert checked == crossings


def test_pairing_report_names_the_first_largest_gram_gap(gerbe_flop):
    wc = gerbe_flop
    basis = minus_basis(wc)
    lams = generic_lambdas(wc, 6, seed=29)
    zs = [1.0 + 0.07 * i for i in range(len(lams))]
    rep = pairing_residuals(wc, lams, zs)
    matrix = lambda_matrix(lams, zs)
    g_minus, _ = localization_gram(wc.git, wc.A_minus, RestrictedBasis(wc, basis, matrix).with_dual)
    g_plus, _ = localization_gram(wc.git, wc.A_plus, RestrictedBasis(wc, basis, matrix, images=True).with_dual)
    assert len(basis) > 1 and len(rep.worst) == len(lams)
    for s, (a, b) in enumerate(rep.worst):
        gaps = np.abs(g_minus[:, :, s] - g_plus[:, :, s])
        first = next((i, k) for i in range(len(basis)) for k in range(len(basis)) if gaps[i, k] == gaps.max())
        assert (a, b) == (basis[first[0]], basis[first[1]])
        assert rep.residuals[s] == gaps.max()


def test_resonant_sample_is_skipped_on_the_clearance_rule(conifold):
    # at delta = (0,) the tangent weight u_1 = L_1 - L_0 vanishes when
    # lam_0 = lam_1; the localization factor 1 - exp(-u_1) then falls to
    # |u_1| (times 2 pi / |z|), and a sample is skipped exactly when some
    # factor on either side is below the clearance 1e-9
    generic = generic_lambdas(conifold, 1, seed=79)[0]
    lams = [generic]
    for gap in (0.0, 1e-12, 1e-7):
        lams.append((generic[1] + gap,) + generic[1:])
    zs = [1.0 + 0j] * len(lams)
    rep = pairing_residuals(conifold, lams, zs)
    assert list(rep.resonant) == [False, True, True, False]
    for lam, z, resonant in zip(lams, zs, rep.resonant):
        if resonant:
            with pytest.raises(ResonantSample):
                verify_pairing_preserved(conifold, lam, z)
            with pytest.raises(ResonantSample):
                euler_pairing(conifold.git, conifold.A_plus, kc_one(conifold.git),
                              kc_one(conifold.git), lam, z=z)
        else:
            # close to resonance the residual loses digits, but the sample
            # is still used
            assert verify_pairing_preserved(conifold, lam, z) >= 0.0
    assert verify_pairing_preserved(conifold, generic, 1.0 + 0j) < 1e-8


# ---------------------------------------------------------------------------
# the k-k flops, D = (1^k, (-1)^k): a point class has 2^(2k-1) terms


def _flop(k):
    return wall_crossing(make_git([(1,)] * k + [(-1,)] * k), (1,), (-1,))


def test_uhfm_on_the_8_8_flop_stays_at_rounding_level():
    # expanded into its 32,768 terms, a class restricted to 1.75e-8 of
    # cancellation noise; as a product of 15 factors it stays at rounding
    wc = _flop(8)
    assert verify_uhfm(wc, generic_lambdas(wc, 20, seed=7)).max_residual < 1e-9


def test_gram_on_the_4_4_flop_matches_the_expanded_route():
    # each entry within 1e-13 of the largest entry, or of the entry's own
    # term sizes where the fixed-point sum cancels (up to 1000 times the
    # largest entry on the plus side)
    wc = _flop(4)
    git = wc.git
    basis = minus_basis(wc)
    lams = generic_lambdas(wc, 5, seed=7)
    matrix = lambda_matrix(lams, [1.0 + 0.07 * i for i in range(len(lams))])
    for A, images in ((wc.A_minus, False), (wc.A_plus, True)):
        classes = [fm_transform(wc, d, rho) if images else basis_e(git, d, rho) for d, rho in basis]

        def expanded(delta, num, den):
            def at(classes, num, lams):
                return np.array([[eval_terms(restriction_terms(git, cls, delta, num, den), lams[:, s])
                                  for s in range(lams.shape[1])] for cls in classes])

            return (at(classes, num, matrix), at(classes, tuple(-x for x in num), -matrix),
                    at([kc_s(git, j) for j in range(git.m)], num, matrix))

        restrict = RestrictedBasis(wc, basis, matrix, images).with_dual
        ref, _ = localization_gram(git, A, expanded)
        gram, _ = localization_gram(git, A, restrict)
        scale = np.maximum(reference_gram(git, A, restrict, matrix)[1], np.abs(ref).max())
        assert (np.abs(gram - ref) <= 1e-13 * scale).all()


def test_stacked_gram_matches_the_pointwise_sum():
    # the committed crossings at the pairing suite's z spread, both sides:
    # each entry within 1e-14 of its terms' absolute sum of the sum taken
    # one fixed point at a time
    for wc in committed_crossings():
        basis = minus_basis(wc)
        lams = generic_lambdas(wc, 5, seed=7)
        matrix = lambda_matrix(lams, [1.0 + 0.07 * i for i in range(len(lams))])
        for A, images in ((wc.A_minus, False), (wc.A_plus, True)):
            restrict = RestrictedBasis(wc, basis, matrix, images).with_dual
            gram, _ = localization_gram(wc.git, A, restrict)
            ref, sizes = reference_gram(wc.git, A, restrict, matrix)
            assert gram.shape == ref.shape == (len(basis), len(basis), len(lams))
            assert (np.abs(gram - ref) <= 1e-14 * sizes).all()


def _oracle_uhfm_diff(wc, basis, lams):
    """verify_uhfm's residual table from oracle_restricted_basis."""
    matrix, samples = continuation_matrix(wc), lambda_matrix(lams)
    # the coefficients are the library's: the table checks the rows
    values = dict(zip(matrix.coefficients, coefficient_values(list(matrix.coefficients.values()), samples)))

    def at(label, images=False):
        sec = label.sector
        return oracle_restricted_basis(wc, basis, label.delta, sec.num, sec.den, samples, images)

    diff = np.stack([at(lp, images=True) for lp in matrix.rows], axis=1)
    for (p, q), kind in matrix.kinds.items():
        row = at(matrix.cols[q])
        diff[:, p] -= row if kind == "identity" else values[p, q] * row
    return diff


def test_plans_match_the_per_point_oracle_bit_for_bit():
    # the bundled and bench crossings and the rank-4 crossing (256 points a
    # side): every class, dual, image and normal factor at every fixed
    # point, both Grams and the uhfm table, with the bits of the rows built
    # one point at a time
    for wc in committed_crossings() + (rank_4_crossing(),):
        git, basis = wc.git, tuple(minus_basis(wc))
        lams = generic_lambdas(wc, 2 if git.r == 4 else 5, seed=89)
        matrix = lambda_matrix(lams, [1.0 + 0.07 * i + 0.2j for i in range(len(lams))])
        for A, images in ((wc.A_minus, False), (wc.A_plus, True)):
            restrict = RestrictedBasis(wc, basis, matrix, images)
            for label in fixed_point_labels(git, A):
                delta, sec = label.delta, label.sector
                values, dual, s = restrict.with_dual(delta, sec.num, sec.den)
                neg = tuple(-x for x in sec.num)
                assert np.array_equal(values, oracle_restricted_basis(wc, basis, delta, sec.num, sec.den, matrix, images))
                assert np.array_equal(dual, oracle_restricted_basis(wc, basis, delta, neg, sec.den, -matrix, images))
                assert np.array_equal(1 - s[[j for j in range(git.m) if j not in delta]],
                                      oracle_normal_factors(git, delta, sec, matrix))
                assert np.array_equal(restrict(delta, sec.num, sec.den), values)
            gram, _ = localization_gram(git, A, restrict.with_dual)
            assert np.array_equal(gram, oracle_gram(wc, A, basis, matrix, images))
        assert np.array_equal(verify_uhfm(wc, lams).diff, _oracle_uhfm_diff(wc, basis, lams))


def test_pairing_builds_each_anticone_plan_once(monkeypatch):
    # a verify pairing on the rank-4 crossing builds the plan of each
    # anticone and grouping once, the classes' at the minus anticones and
    # the images' at the plus ones, whatever the number of sectors there; a
    # verify uhfm after it builds none
    from wallcross import cli

    built = []
    build = ktheory._anticone_plan.__wrapped__

    def counting(git, e, delta, groups):
        built.append((delta, groups))
        return build(git, e, delta, groups)

    maxsize = ktheory._anticone_plan.cache_parameters()["maxsize"]
    monkeypatch.setattr(ktheory, "_anticone_plan", functools.lru_cache(maxsize=maxsize)(counting))
    wc = rank_4_crossing()
    basis = minus_basis(wc)
    groups = [(delta_b, tuple(rho for d, rho in basis if d == delta_b)) for delta_b in dict.fromkeys(d for d, _ in basis)]
    j_minus = {delta_b: next(i for i in delta_b if wc.pair_e(i) < 0) for delta_b, _ in groups}

    def crossing(delta, delta_b):
        return j_minus[delta_b] if delta_b not in wc.A_plus.minimal and j_minus[delta_b] not in delta else None

    needed = {(delta, tuple((delta_b, rhos, None) for delta_b, rhos in groups)) for delta in wc.A_minus.minimal}
    needed |= {(delta, tuple((delta_b, rhos, crossing(delta, delta_b)) for delta_b, rhos in groups))
               for delta in wc.A_plus.minimal}
    cfg = cli.parse_config(dict(RANK_4_CONFIG, samples=4))
    cli.cmd_verify(cfg, "pairing")
    assert len(wc.labels_plus) > len(wc.A_plus.minimal)
    assert len(built) == len(needed) and set(built) == needed
    cli.cmd_verify(cfg, "uhfm")
    assert len(built) == len(needed)


def test_describe_matches_the_term_by_term_text():
    # every point class and image of the committed crossings, and classes
    # with powers, negative exponents, coefficients other than +-1 and no
    # line bundle factor
    classes = [KClass((0, 0), ()), KClass((0, 0), (((0, 0, 0), 1),)),
               KClass((0, 0), (((0, 2, 0), -3), ((1, 0, -1), 1), ((1, 1, 0), 2))),
               KClass((1, -2), (((0, 0, 0), -1), ((0, 0, 4), 1), ((-2, 0, 1), -5)))]
    for wc in committed_crossings():
        basis = minus_basis(wc)
        classes += [basis_e(wc.git, d, rho) for d, rho in basis]
        classes += [fm_transform(wc, d, rho) for d, rho in basis]
    assert len(classes) > 700
    for kc in classes:
        assert kc.describe() == oracle_describe(kc)
