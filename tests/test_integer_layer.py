"""The integer exact layer against its Fraction oracles.

Cone tests, wall normals, box classes, line multiples, next-to pairs, the
pull-push transform, the fixed-point restrictions, ranks, determinants,
solves and kernels run on integers; the oracles in helpers.py are the
rational-elimination paths they replace.  Every comparison is exact and
includes order.
"""

import cmath
import functools
import itertools
import pathlib
import random
from fractions import Fraction
from math import lcm

import pytest

from helpers import (
    anticone_dual,
    coefficient_fractions,
    committed_crossings,
    fraction_coefficient_value,
    frac_part,
    fraction_coeffs,
    fraction_compatible_minus_lift,
    fraction_continuation_coefficient,
    fraction_det,
    fraction_next_to_pairs,
    fraction_rank,
    fraction_solve,
    fraction_wall_normal,
    is_integral,
    lift_fractions,
    oracle_box_classes,
    oracle_crossing_normal,
    oracle_fm_transform,
    oracle_form_text,
    oracle_line_membership,
    oracle_minimal_anticones,
    oracle_next_to_pairs,
    oracle_restriction_terms,
    oracle_restrict_u,
    oracle_rho_lifts,
    oracle_theta_restrict,
    primitive,
    oracle_wall_hyperplanes,
    random_crepant_crossing,
    vadd,
    vscale,
    vsub,
)
from wallcross.cli import load_config
from wallcross.gitfan import (
    EmptyQuotient,
    NotDeligneMumford,
    _box_classes,
    _chamber_table,
    _wall_hyperplanes,
    anticones_next_to,
    box_elements,
    compatible_minus_lift,
    fixed_point_labels,
    make_git,
    next_to_cells,
    next_to_pairs,
    plus_labels_across,
    validate_stability,
    wall_crossing,
    wall_frame,
)
from wallcross.hypergeom import WALL_BOUND, canonical_d_plus, generic_lambdas
from wallcross.ktheory import (
    KClass,
    _thetas,
    basis_e,
    canonical_rho_lifts,
    eval_terms,
    fm_transform,
    lambda_matrix,
    minus_basis,
    restricted_basis,
    restriction_terms,
)
from wallcross.lattice import (
    NotAHyperplane,
    SingularBasis,
    _det,
    _line_transform,
    _span_minor,
    cleared,
    int_inverse,
    line_split,
    matrix_rank,
    primitive_wall_normal,
    right_kernel,
    solve_rectangular,
    solve_square,
    span_numerators,
    vdot,
)
from wallcross.localization import restrict_u, theta_restrict
from wallcross.mellinbarnes import IncompatibleLifts, _anticone_pair, _coefficient, continuation_coefficient

ROOT = pathlib.Path(__file__).parent.parent


@functools.lru_cache(maxsize=None)
def _crossings():
    """260 seeded draws with r <= 3 and the seven committed rank-3 crossings."""
    out = []
    for seed, count in ((3, 87), (4, 87), (5, 86)):
        rng = random.Random(seed)
        out += [random_crepant_crossing(rng, max_r=3, max_m=7) for _ in range(count)]
    for path in sorted((ROOT / "bench" / "configs").glob("rank3_*.json")):
        cfg = load_config(str(path))
        out.append(wall_crossing(cfg["git"], cfg["omega_plus"], cfg["omega_minus"]))
    assert len(out) == 267 and {wc.git.r for wc in out} == {1, 2, 3}
    return tuple(out)


def _outcome(fn, *args):
    """The result of fn, or the type and message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def test_anticones_match_the_rational_cone_test():
    for wc in _crossings():
        for omega, A in ((wc.omega_plus, wc.A_plus), (wc.omega_minus, wc.A_minus)):
            assert A.minimal == oracle_minimal_anticones(wc.git, omega)


def test_wall_hyperplanes_and_crossing_normal_match_the_rational_kernel():
    for wc in _crossings():
        assert set(_wall_hyperplanes(wc.git)) == set(oracle_wall_hyperplanes(wc.git))
        normal = oracle_crossing_normal(wc.git, wc.omega_plus, wc.omega_minus)
        assert wc.e in (normal, tuple(-x for x in normal))


def test_box_classes_match_the_fraction_pairings():
    for wc in _crossings():
        for A in (wc.A_plus, wc.A_minus):
            assert box_elements(wc.git, A) == oracle_box_classes(wc.git, A)


def test_sector_pairings_are_the_fraction_pairings():
    for wc in _crossings():
        for A in (wc.A_plus, wc.A_minus):
            for sec in box_elements(wc.git, A):
                # the pairings D_i . f as integer numerators over the order
                assert tuple(Fraction(p, sec.den) for p in sec.pairings) == tuple(
                    vdot(row, sec.f) for row in wc.git.D)
                assert all(type(p) is int for p in sec.pairings)
                # f as numerators over the order of the class, in lowest terms
                assert sec.den == lcm(*(x.denominator for x in sec.f))
                assert tuple(Fraction(n, sec.den) for n in sec.num) == sec.f
                assert all(type(n) is int for n in sec.num)


def test_sector_views_phases_and_lifts_match_the_fraction_route():
    """Every sector's f, age, I_f and per-character phase against the
    Fraction pairings of the box oracle, and restriction_terms at the
    canonical lift and at lifts shifted by integer vectors, given as integer
    numerators over the order, against the Fraction restriction."""
    checked = 0
    for wc in committed_crossings() + _crossings()[:260]:
        git = wc.git
        shifts = [(0,) * git.r, tuple(1 - 3 * (i > 0) for i in range(git.r))]
        rho = tuple(a - b for a, b in zip(git.D[0], git.D[-1]))
        terms = [(tuple(int(i == j) for i in range(git.m)), j + 1) for j in range(git.m)]
        terms.append((tuple(2 * (i == 0) - (i == git.m - 1) for i in range(git.m)), -3))
        cls = KClass(rho, tuple(sorted(terms)))
        for A in (wc.A_plus, wc.A_minus):
            oracle_f = {sec.f for sec in oracle_box_classes(git, A)}
            for sec in box_elements(git, A):
                assert sec.f in oracle_f and all(type(x) is Fraction for x in sec.f)
                pairings = [vdot(row, sec.f) for row in git.D]
                assert type(sec.age) is Fraction
                assert sec.age == sum((frac_part(p) for p in pairings), Fraction(0))
                assert sec.I_f == tuple(i for i, p in enumerate(pairings) if p.denominator == 1)
                assert [sec.phase(j).hex() for j in range(git.m)] == [
                    float(frac_part(p)).hex() for p in pairings]
            for label in fixed_point_labels(git, A):
                sec = label.sector
                for v in shifts:
                    num = tuple(x + sec.den * k for x, k in zip(sec.num, v))
                    got = [(c, phase, fraction_coeffs(form))
                           for c, phase, form in restriction_terms(git, cls, label.delta, num, sec.den)]
                    assert got == list(oracle_restriction_terms(git, cls, label.delta, vadd(label.f, v)))
                    checked += 1
    assert checked > 10000, checked


def test_factored_restrictions_match_the_expanded_route():
    """restricted_basis against eval_terms of restriction_terms of basis_e
    and fm_transform: every minus basis class at every minus fixed point and
    every image at every plus fixed point, at the point's own lift and at
    that lift shifted by an integer vector, to 1e-12 of the sum of the
    absolute values of the expanded terms.  Where those terms cancel
    exactly (merged on their Fraction phases and forms), the factored value
    is exactly 0.0.  A crossing with more than 30 cases is checked on at
    most 30 evenly spaced ones."""
    checked = zeros = 0
    for wc in committed_crossings() + _crossings()[:80]:
        git = wc.git
        basis = tuple(minus_basis(wc))
        lam = generic_lambdas(wc, 1, seed=83)[0]
        matrix = lambda_matrix([lam])
        shift = tuple(1 - 3 * (i > 0) for i in range(git.r))
        cases = [(label, images, moved, b) for images, labels in ((False, wc.labels_minus), (True, wc.labels_plus))
                 for label in labels for moved in (False, True) for b in range(len(basis))]
        factored, classes = {}, {}
        for label, images, moved, b in cases[::-(-len(cases) // 30)]:
            num, den = label.sector.num, label.sector.den
            if moved:
                num = tuple(x + den * k for x, k in zip(num, shift))
            if (label, images, moved) not in factored:
                factored[label, images, moved] = restricted_basis(wc, basis, label.delta, num, den, matrix, images)
            got = factored[label, images, moved][b]
            if (images, b) not in classes:
                delta_b, rho = basis[b]
                classes[images, b] = fm_transform(wc, delta_b, rho) if images else basis_e(git, wc.A_minus, delta_b, rho)
            terms = restriction_terms(git, classes[images, b], label.delta, num, den)
            merged = {}
            for c, phase, form in terms:
                merged[phase, form] = merged.get((phase, form), 0) + c
            if not any(merged.values()):
                assert got[0] == 0.0
                zeros += 1
            scale = sum(abs(c * cmath.exp(form(lam))) for c, _, form in terms)
            assert abs(got[0] - eval_terms(terms, lam)) <= 1e-12 * scale
            checked += 1
    assert checked > 2000 and zeros > 800, (checked, zeros)


def test_exact_caches_stay_bounded():
    # the caches that reuse exact work across crossings keep a fixed bound
    # however many crossings a process sees
    for wc in _crossings()[::3]:
        for A in (wc.A_plus, wc.A_minus):
            for delta in A.minimal:
                restrict_u(wc.git, delta)
        next_to_cells(wc)
        wall_frame(wc)
    for cached in (int_inverse, _span_minor, _line_transform, restrict_u, _box_classes,
                   _chamber_table, _wall_hyperplanes, _thetas):
        info = cached.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize, (cached, info)


def test_coefficient_pairings_match_the_fraction_vdot():
    # D_j . lift from the sector pairings plus an integer, for the default
    # lifts, lifts shifted along the wall normal and both shifted by Z^r
    for wc in _crossings()[::2]:
        unit = (1,) + (0,) * (wc.git.r - 1)
        for lp, lm in next_to_pairs(wc):
            f_minus = compatible_minus_lift(wc, lp, lm)
            for lifts in ((None, None), (vadd(lp.f, wc.e), f_minus), (vadd(lp.f, unit), vadd(f_minus, unit))):
                coeff = continuation_coefficient(wc, (lp, lm), *lifts)
                lift_plus, lift_minus = lift_fractions(coeff.lift_plus), lift_fractions(coeff.lift_minus)
                assert lift_minus == (f_minus if lifts[1] is None else lifts[1])
                D = wc.git.D
                # each lift's pairings c = D . n, in integers
                for s, n, c in (coeff.lift_plus, coeff.lift_minus):
                    assert all(type(x) is int for x in (s,) + tuple(n) + tuple(c))
                    assert c == tuple(sum(a * b for a, b in zip(row, n)) for row in D)
                assert Fraction(*coeff.shift) == vdot(D[coeff.j_minus], lift_plus) - vdot(D[coeff.j_minus], lift_minus)
                assert all(type(x) is int for x in coeff.shift) and coeff.shift[1] > 0
                assert [(c_plus, c_minus) for _, c_plus, _, c_minus in coeff.ratio_terms] == [
                    (complex(vdot(D[j], lift_plus)), complex(vdot(D[j], lift_minus))) for j in coeff.ratio_js]


def test_next_to_pairs_and_lifts_match_the_double_loop():
    for wc in _crossings():
        pairs = next_to_pairs(wc)
        assert pairs == oracle_next_to_pairs(wc)
        for lp, lm in pairs:
            alpha = oracle_line_membership(vsub(lm.f, lp.f), wc.e)
            assert compatible_minus_lift(wc, lp, lm) == vadd(lp.f, vscale(alpha, wc.e))


def test_labels_come_in_the_order_of_the_deleted_sort():
    # delta lex, zero sector first, then by f: the order fixed_point_labels
    # sorted into before its double loop was seen to give it
    for wc in committed_crossings() + _crossings():
        for A in (wc.A_plus, wc.A_minus):
            labels = fixed_point_labels(wc.git, A)
            assert labels == sorted(labels, key=lambda l: (l.delta, not l.sector.is_zero, l.sector.f))


def _bits(z):
    return z.real.hex(), z.imag.hex()


def _doctored_lifts(wc, coeff, sector_plus):
    """Lifts that continuation_coefficient must refuse: a plus lift and a
    minus lift moved off their sector classes by half a step of the plus
    sector's order, and, for r >= 2, a plus lift moved by a unit vector off
    the wall normal's line."""
    f_plus, f_minus = lift_fractions(coeff.lift_plus), lift_fractions(coeff.lift_minus)
    half = Fraction(1, 2 * sector_plus.den)
    out = [((f_plus[0] + half,) + f_plus[1:], f_minus), (f_plus, (f_minus[0] + half,) + f_minus[1:])]
    if wc.git.r > 1:
        k = 1 if sum(1 for x in wc.e if x) == 1 and wc.e[0] else 0
        out.append((tuple(x + (i == k) for i, x in enumerate(f_plus)), f_minus))
    return out


def _moved(wc, lift, v):
    """An integer lift (s, n, c) plus the integer vector v over the same s,
    its pairings c = D . n taken afresh."""
    s, n, _c = lift
    n = tuple(x + s * y for x, y in zip(n, v))
    return s, n, tuple(sum(a * b for a, b in zip(row, n)) for row in wc.git.D)


def test_coefficient_route_matches_the_fraction_route():
    """Next-to pairs, compatible minus lifts and connection coefficients on
    integer numerators against the Fraction route they replace: the same
    pairs and lifts, equal coefficient fields (the integer lifts and shift
    read as Fractions) and every value bit for bit, for the default lifts
    and the three shifted lifts of lift_invariance_check (on the first three
    pairs of a crossing), each supplied as a rational vector and as the
    default integer lift moved over its own denominator; doctored lifts
    raise IncompatibleLifts on both."""
    coefficients = refused = 0
    for wc in committed_crossings() + _crossings():
        pairs = next_to_pairs(wc)
        assert pairs == fraction_next_to_pairs(wc)
        lams = generic_lambdas(wc, 2, 7)
        unit = (1,) + (0,) * (wc.git.r - 1)
        for k, (lp, lm) in enumerate(pairs):
            assert compatible_minus_lift(wc, lp, lm) == fraction_compatible_minus_lift(wc, lp, lm)
            base = continuation_coefficient(wc, (lp, lm))
            P, M = base.lift_plus, base.lift_minus
            f_plus, f_minus = lift_fractions(P), lift_fractions(M)
            supplied = [(vadd(f_plus, wc.e), f_minus), (f_plus, vsub(f_minus, wc.e)),
                        ((f_plus[0] + 1,) + f_plus[1:], (f_minus[0] + 1,) + f_minus[1:])]
            moved = [(_moved(wc, P, wc.e), M), (P, _moved(wc, M, vscale(-1, wc.e))),
                     (_moved(wc, P, unit), _moved(wc, M, unit))]
            anticones = _anticone_pair(wc, lp.delta, lm.delta)
            for lifts, integer in zip([(None, None)] + supplied * (k < 3), [(None, None)] + moved * (k < 3)):
                ref = fraction_continuation_coefficient(wc, (lp, lm), *lifts)
                for coeff in (continuation_coefficient(wc, (lp, lm), *lifts),
                              _coefficient(wc, ref.w, anticones, (lp, lm), *integer)):
                    assert coefficient_fractions(coeff) == ref
                    assert [_bits(coeff.value(lam)) for lam in lams] == [
                        _bits(fraction_coefficient_value(ref, lam)) for lam in lams]
                coefficients += 1
            for lifts in _doctored_lifts(wc, base, lp.sector) * (k < 3):
                got = _outcome(continuation_coefficient, wc, (lp, lm), *lifts)
                assert got[0] is IncompatibleLifts
                assert got == _outcome(fraction_continuation_coefficient, wc, (lp, lm), *lifts)
                refused += 1
    assert coefficients > 5000 and refused > 1000, (coefficients, refused)


def test_sectors_that_are_not_next_to_keep_their_error():
    """Labels across the wall on next-to anticones: the compatible minus
    lift read from the sectors' line splits is the candidate loop's lift, or
    raises its ValueError when the sectors differ by more than a multiple of
    e, and the default coefficient raises that same error."""
    lifted = refused = 0
    for wc in committed_crossings() + _crossings()[::3]:
        across = [lm for lm in wc.labels_minus if lm.delta not in wc.A_plus.minimal]
        for lp in plus_labels_across(wc)[:12]:
            for lm in across[:12]:
                if not anticones_next_to(wc, lp.delta, lm.delta):
                    continue
                got = _outcome(compatible_minus_lift, wc, lp, lm)
                assert got == _outcome(fraction_compatible_minus_lift, wc, lp, lm)
                if got == (ValueError, "sectors are not next to each other"):
                    assert _outcome(continuation_coefficient, wc, (lp, lm)) == got
                    refused += 1
                else:
                    lifted += 1
    assert lifted > 1000 and refused > 1000, (lifted, refused)


def test_restrictions_match_the_fraction_solve():
    """restrict_u, and theta_restrict at the characters and random integer
    characters, against the Fraction solve: numerators over the isotropy
    order, floats bit for bit those of the Fractions, and the printed form."""
    rng = random.Random(31)
    for wc in committed_crossings() + _crossings()[:260]:
        git = wc.git
        for delta in sorted(set(wc.A_plus.minimal + wc.A_minus.minimal)):
            det = abs(fraction_det([git.D[i] for i in delta]))
            chars = [tuple(rng.randint(-4, 4) for _ in range(git.r)) for _ in range(3)]
            cases = list(zip(restrict_u(git, delta), oracle_restrict_u(git, delta)))
            cases += [(theta_restrict(git, delta, p), oracle_theta_restrict(git, delta, p))
                      for p in list(git.D) + chars]
            for form, coeffs in cases:
                assert form.den == det and tuple(Fraction(n, det) for n in form.num) == coeffs
                assert [x.hex() for x in form.floats] == [float(a).hex() for a in coeffs]
                assert str(form) == oracle_form_text(coeffs)


def _oracle_d_plus(wc, label):
    """The base exponent by the Fraction search: the first coordinate vector
    on the grid whose dual vector d has d - f integral."""
    e_coords = [wc.pair_e(i) for i in label.delta]
    grid = itertools.product(*(range(0, v) if v else range(0, WALL_BOUND + 1) for v in e_coords))
    for kvec in grid:
        d = anticone_dual(wc.git.D, label.delta, kvec)
        if is_integral(vsub(d, label.f)):
            return d
    raise ValueError("no base exponent found within the wall bound")


def test_base_exponents_match_the_fraction_search():
    # the target numerators are the sector's, moved from its order to det
    checked = 0
    for wc in _crossings()[::4]:
        for label in plus_labels_across(wc):
            got = _outcome(canonical_d_plus, wc, label)
            if isinstance(got[1], int):
                num, det = got
                got = tuple(Fraction(x, det) for x in num)
                checked += label.sector.den != det
            assert got == _outcome(_oracle_d_plus, wc, label)
    assert checked > 0


def test_rho_lifts_match_the_fraction_lifts():
    for wc in _crossings()[:260]:
        for A in (wc.A_plus, wc.A_minus):
            for delta in A.minimal:
                lifts = canonical_rho_lifts(wc.git, delta)
                assert lifts == oracle_rho_lifts(wc.git, delta)
                assert all(type(x) is int for lift in lifts for x in lift)


def test_fm_images_match_the_kclass_product():
    for wc in _crossings()[::3]:
        for delta, rho in minus_basis(wc):
            assert fm_transform(wc, delta, rho) == oracle_fm_transform(wc, delta, rho)


def test_line_membership_and_class_match_the_candidate_loop():
    rng = random.Random(17)
    for _ in range(400):
        n = rng.randint(1, 3)
        e = tuple(rng.randint(-4, 4) for _ in range(n))
        if not any(e):
            continue
        e = primitive(e)
        v = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n))
        alpha = oracle_line_membership(v, e)
        s, num = cleared(v)
        a, c = line_split(num, s, e)
        # v lies in the class of 0 exactly when it is alpha e modulo Z^r
        assert (c == (0,) * (n - 1)) == (alpha is not None)
        if alpha is not None:
            assert Fraction(a, s) == alpha


def test_line_membership_rejects_a_non_primitive_normal():
    # with e = (2,), both 1/4 and 3/4 satisfy v - alpha e integral
    with pytest.raises(ValueError, match="content is 2"):
        line_split((1,), 2, (2,))
    with pytest.raises(ValueError, match="content is 0"):
        line_split((1, 0), 2, (0, 0))


def test_span_numerators_solve_over_a_positive_determinant():
    rng = random.Random(8)
    for _ in range(300):
        r = rng.randint(1, 3)
        rows = [tuple(rng.randint(-3, 3) for _ in range(r)) for _ in range(rng.randint(0, r))]
        w = tuple(rng.randint(-5, 5) for _ in range(r))
        if rng.random() < 0.5:
            w = tuple(sum(rng.randint(-2, 2) * row[a] for row in rows) for a in range(r))
        found = span_numerators(rows, w)
        independent = not rows or any(
            fraction_det([[row[c] for c in cols] for row in rows])
            for cols in itertools.combinations(range(r), len(rows)))
        if not rows:
            solution = None if any(w) else ()
        else:
            solution = fraction_solve([[row[a] for row in rows] for a in range(r)], w)
        if found is None:
            assert not independent or solution is None
        else:
            c, d = found
            assert independent and d > 0 and tuple(Fraction(x, d) for x in c) == solution


def test_cached_inverse_is_the_adjugate_over_a_positive_determinant():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(1, 4)
        M = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n))
        if fraction_det(M) == 0:
            continue
        adj, det = int_inverse(M)
        assert det == abs(fraction_det(M))
        assert all(sum(adj[i][k] * M[k][j] for k in range(n)) == det * (i == j)
                   for i in range(n) for j in range(n))


def _wall_normal_or_none(fn, rows, side):
    try:
        return fn(rows, side)
    except NotAHyperplane:
        return None


def test_ranks_determinants_solves_and_kernels_match_fraction_elimination():
    """matrix_rank, _det, solve_square, solve_rectangular, right_kernel and
    primitive_wall_normal against the Fraction elimination of helpers.py, on
    rational matrices that are often rank deficient."""
    rng = random.Random(12)

    def entry():
        return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))

    def matrix(nrow, ncol):
        M = [[entry() for _ in range(ncol)] for _ in range(nrow)]
        if nrow > 1 and rng.random() < 0.4:  # a dependent last row
            c = entry()
            M[-1] = [c * a + (b if nrow > 2 else 0) for a, b in zip(M[0], M[1])]
        return M

    seen = set()
    for _ in range(300):
        n = rng.randint(1, 4)
        M, b = matrix(n, n), [entry() for _ in range(n)]
        assert _det(M) == fraction_det(M)
        assert matrix_rank(M) == fraction_rank(M)
        if fraction_det(M) == 0:
            seen.add("singular")
            with pytest.raises(SingularBasis):
                solve_square(M, b)
        else:
            assert solve_square(M, b) == fraction_solve(M, b)

        # n x k with k <= n columns, dependent when the k x n draw is
        k = rng.randint(1, n)
        A = [list(row) for row in zip(*matrix(k, n))]
        assert matrix_rank(A) == fraction_rank(A)
        rhs = [entry() for _ in range(n)]
        if rng.random() < 0.5:
            x = [entry() for _ in range(k)]
            rhs = [sum(a * c for a, c in zip(row, x)) for row in A]
        if fraction_rank(A) < k:
            seen.add("dependent")
            assert solve_rectangular(A, rhs) is None
        else:
            expected = fraction_solve(A, rhs)
            seen.add("inconsistent" if expected is None else "solved")
            assert solve_rectangular(A, rhs) == expected

        K = right_kernel(A, k)
        assert len(K) == k - fraction_rank(A) and fraction_rank(K) == len(K)
        assert all(vdot(row, v) == 0 for row in A for v in K)

        W, side = matrix(n - 1, n), [rng.randint(-2, 2) for _ in range(n)]
        normal = _wall_normal_or_none(primitive_wall_normal, W, side)
        assert normal == _wall_normal_or_none(fraction_wall_normal, W, side)
        seen.add("normal" if normal else "no normal")
    assert seen == {"singular", "dependent", "inconsistent", "solved", "normal", "no normal"}


def test_the_kernel_of_integer_rows_builds_no_fraction(monkeypatch):
    """integer_kernel_basis, which gitfan's sublattices call on integer
    rows, builds no Fraction; right_kernel clears rational rows first and
    gives the same basis for the same rows scaled to integers."""
    import wallcross.lattice as lattice

    rng = random.Random(13)
    cases = []
    for _ in range(100):
        k = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(k)]
                for _ in range(rng.randint(0, 3))]
        cases.append(([cleared(row)[1] for row in rows], k, right_kernel(rows, k)))

    def no_fraction(x):
        raise AssertionError("a Fraction was built for %r" % (x,))

    monkeypatch.setattr(lattice, "_q", no_fraction)
    for integer_rows, k, expected in cases:
        assert lattice.integer_kernel_basis(integer_rows, k) == expected


@pytest.mark.parametrize("D, omega, raised", [
    # r = 1
    ([(1,), (1,), (-1,), (-1,)], (Fraction(1, 3),), None),
    ([(1,), (1,), (-1,), (-1,)], (Fraction(-5, 7),), None),
    ([(1,), (1,), (-2,)], (Fraction(2, 9),), None),
    # rational omega with mixed denominators
    ([(1, 0), (1, 0), (-1, 0), (-1, 0), (0, 1), (0, 1)], (Fraction(1, 2), Fraction(2, 3)), None),
    ([(1, 0), (1, 2), (0, 2), (-1, -1), (0, -1)], (Fraction(3, 4), Fraction(-1, 6)), None),
    ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 0)],
     (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)), None),
    # omega on the ray of one character, or zero
    ([(1, 0), (0, 1), (-1, -1)], (Fraction(2, 3), Fraction(0)), NotDeligneMumford),
    ([(1,), (1,), (-1,), (-1,)], (Fraction(0),), NotDeligneMumford),
    # omega outside the cone of the characters
    ([(1,), (1,)], (Fraction(-1, 2),), EmptyQuotient),
    ([(1, 0), (0, 1), (1, 1)], (Fraction(-1, 3), Fraction(1, 4)), EmptyQuotient),
    # omega on the ray of D_2 and inside the cone of D_0, D_1: the first
    # undersized anticone by size, then lex order, is {2}, not {0, 1}
    ([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (-1, -1, -1)], (Fraction(2), Fraction(2), Fraction(0)),
     NotDeligneMumford),
])
def test_stability_outcomes_and_messages_match_the_oracle(D, omega, raised):
    git = make_git(D)
    outcome = _outcome(lambda: validate_stability(git, omega).minimal)
    assert outcome == _outcome(oracle_minimal_anticones, git, omega)
    assert (outcome[0] if raised else None) == raised


def test_random_stability_conditions_match_the_oracle():
    rng = random.Random(23)
    raised = set()
    for _ in range(150):
        r = rng.randint(1, 3)
        D = [tuple(rng.randint(-2, 2) for _ in range(r)) for _ in range(rng.randint(r + 1, 6))]
        try:
            git = make_git(D)
        except ValueError:
            continue
        omega = tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5, 7))) for _ in range(r))
        outcome = _outcome(lambda: validate_stability(git, omega).minimal)
        assert outcome == _outcome(oracle_minimal_anticones, git, omega)
        if isinstance(outcome[0], type):
            raised.add(outcome[0])
    assert raised == {NotDeligneMumford, EmptyQuotient}


def test_chamber_product_matches_the_loop_oracle_on_walls_and_undersized_sets(monkeypatch):
    """validate_stability against the size-by-size loop of the oracle on
    random draws: generic omegas; omegas in the cone of r - 1 characters (a
    wall) or of fewer, and zero, which have a zero coordinate over some
    independent r-subset; and weights or omegas so large that the product
    with the chamber table runs in Python ints.  Minimal anticones, error
    types and messages are those of the oracle, and no draw makes a span
    solve: the table decides every one."""
    from wallcross import gitfan, lattice

    solves = []
    for module, name in ((gitfan, "span_numerators"), (lattice, "span_numerators"),
                         (lattice, "_span_minor")):
        monkeypatch.setattr(module, name, lambda *args, name=name: solves.append(name))
    rng = random.Random(41)
    seen = {}
    for k in range(400):
        r = rng.randint(1, 3)
        scale = 2 ** 40 if k % 20 == 0 else 1
        D = [tuple(scale * rng.randint(-3, 3) for _ in range(r)) for _ in range(rng.randint(r + 1, 7))]
        try:
            git = make_git(D)
        except ValueError:
            continue
        kind = rng.choice(("generic", "wall", "undersized", "huge"))
        if kind == "generic":
            omega = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(r))
        elif kind == "huge":
            omega = tuple(Fraction(rng.randint(-9, 9) * 2 ** 61 + 1, rng.randint(1, 7)) for _ in range(r))
        else:
            size = r - 1 if kind == "wall" else rng.randint(0, max(0, r - 2))
            J = rng.sample(range(git.m), size)
            omega = tuple(sum(Fraction(rng.randint(1, 5), rng.randint(1, 3)) * git.D[j][a] for j in J)
                          for a in range(r))
        outcome = _outcome(lambda: validate_stability(git, omega).minimal)
        assert solves == []
        assert outcome == _outcome(oracle_minimal_anticones, git, omega), (D, omega)
        key = (kind if scale == 1 else "wide", outcome[0].__name__ if isinstance(outcome[0], type) else "valid")
        seen[key] = seen.get(key, 0) + 1
    assert {("generic", "valid"), ("generic", "EmptyQuotient"), ("wall", "NotDeligneMumford"),
            ("undersized", "NotDeligneMumford"), ("huge", "valid"), ("wide", "valid")} <= set(seen), seen


def test_wide_characters_cross_the_same_wall_in_python_ints():
    """The rank-3 crossings of _crossings with every character scaled by
    2**40: the chamber table no longer fits int64 and holds Python ints,
    and the crossing has the unscaled e, anticones and case, those of the
    Fraction oracles."""
    from wallcross.gitfan import _chamber_table

    crossings = [wc for wc in _crossings() if wc.git.r == 3]
    assert len(crossings) == 26
    for wc in crossings:
        git = make_git([tuple(2 ** 40 * x for x in row) for row in wc.git.D])
        assert _chamber_table(git)[1].dtype == object
        wide = wall_crossing(git, wc.omega_plus, wc.omega_minus)
        assert (wide.e, wide.A_plus, wide.A_minus, wide.case) == (wc.e, wc.A_plus, wc.A_minus, wc.case)
        assert wide.e in {oracle_crossing_normal(git, wc.omega_plus, wc.omega_minus),
                          tuple(-x for x in oracle_crossing_normal(git, wc.omega_plus, wc.omega_minus))}
        for omega, A in ((wc.omega_plus, wide.A_plus), (wc.omega_minus, wide.A_minus)):
            assert A.minimal == oracle_minimal_anticones(git, omega)
