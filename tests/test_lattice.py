import pathlib
import random
from fractions import Fraction

import pytest

from helpers import (
    fraction_det,
    fraction_dual,
    fraction_rank,
    fraction_solve,
    oracle_coords,
    primitive,
    random_crepant_crossing,
    vadd,
    vscale,
)
from wallcross.cli import load_config
from wallcross.lattice import (
    NotAHyperplane,
    SingularBasis,
    anticone_coords,
    cleared,
    express_in_anticone_basis,
    extended_lattice,
    hermite_row_form,
    intvec,
    lattice_from_generators,
    line_split,
    primitive_wall_normal,
    quotient_transversal,
    ratvec,
    vdot,
)
from wallcross.gitfan import box_elements, make_git, validate_stability, wall_crossing

ROOT = pathlib.Path(__file__).parent.parent

CONIFOLD_D = [(1,), (1,), (-1,), (-1,)]


def test_express_conifold():
    assert express_in_anticone_basis(CONIFOLD_D, (0,), 1) == (Fraction(1),)
    assert express_in_anticone_basis(CONIFOLD_D, (0,), 2) == (Fraction(-1),)


def test_express_identity_on_delta():
    D = [(1, 0), (1, 2), (0, 2)]
    assert express_in_anticone_basis(D, (0, 1), 0) == (Fraction(1), Fraction(0))
    assert express_in_anticone_basis(D, (0, 1), 1) == (Fraction(0), Fraction(1))


def test_express_singular():
    D = [(1, 0), (2, 0), (0, 1)]
    with pytest.raises(SingularBasis):
        express_in_anticone_basis(D, (0, 1), 2)


def test_express_round_trip_random():
    rng = random.Random(42)
    for _ in range(50):
        r = rng.randint(1, 3)
        m = rng.randint(r + 1, 6)
        D = [tuple(rng.randint(-3, 3) for _ in range(r)) for _ in range(m)]
        deltas = [
            d
            for d in __import__("itertools").combinations(range(m), r)
            if _nonsingular(D, d)
        ]
        if not deltas:
            continue
        delta = rng.choice(deltas)
        j = rng.randrange(m)
        c = express_in_anticone_basis(D, delta, j)
        recon = [sum(c[t] * D[i][k] for t, i in enumerate(delta)) for k in range(r)]
        assert tuple(recon) == tuple(Fraction(x) for x in D[j])


def _nonsingular(D, delta):
    return fraction_det([D[i] for i in delta]) != 0


def test_wall_normal_conifold():
    assert primitive_wall_normal([], (Fraction(1),)) == (1,)


def test_wall_normal_gerbe():
    e = primitive_wall_normal([(1, 2)], (2, 1))
    assert e == (2, -1)
    assert vdot((1, 2), e) == 0
    assert vdot((2, 1), e) > 0


def test_wall_normal_sign_flip():
    e = primitive_wall_normal([(1, 2)], (-2, -1))
    assert e == (-2, 1)


def test_wall_normal_primitive_content():
    e = primitive_wall_normal([(2, 4)], (2, 1))
    from math import gcd

    assert gcd(*map(abs, e)) == 1


def test_wall_normal_not_hyperplane():
    with pytest.raises(NotAHyperplane):
        primitive_wall_normal([(1, 0), (0, 1)], (1, 1))


def rational_line_membership(v, e):
    """The multiple alpha of e that line_split finds for the rational vector
    v, as a Fraction, or None."""
    s, num = cleared(v)
    a, c = line_split(num, s, e)
    return None if any(c) else Fraction(a, s)


def test_line_membership_examples():
    assert rational_line_membership((Fraction(1, 2),), (1,)) == Fraction(1, 2)
    assert rational_line_membership((Fraction(0),), (1,)) == Fraction(0)
    assert rational_line_membership((Fraction(1, 3), Fraction(1, 2)), (2, -1)) is None


def test_line_membership_translation_invariance():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 3)
        e = tuple(rng.randint(-3, 3) for _ in range(n))
        if all(x == 0 for x in e):
            continue
        e = primitive(e)
        v = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n))
        u = tuple(rng.randint(-3, 3) for _ in range(n))
        assert rational_line_membership(v, e) == rational_line_membership(vadd(v, u), e)


def test_line_membership_finds_alpha():
    # v = alpha e + integer vector must always be recovered
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 3)
        e = tuple(rng.randint(-3, 3) for _ in range(n))
        if all(x == 0 for x in e):
            continue
        e = primitive(e)
        alpha = Fraction(rng.randint(0, 5), rng.randint(1, 6))
        alpha -= alpha.numerator // alpha.denominator
        u = tuple(rng.randint(-2, 2) for _ in range(n))
        v = vadd(vscale(alpha, e), u)
        assert rational_line_membership(v, e) == alpha


def test_extended_lattice_conifold_is_standard():
    git = make_git(CONIFOLD_D)
    assert extended_lattice(git, (1,)) == ((Fraction(1),),)


def test_extended_lattice_resolution():
    git = make_git([(1,), (1,), (-2,)])
    assert extended_lattice(git, (-1,)) == ((Fraction(1, 2),),)


def test_extended_lattice_contains_box_and_index():
    git = make_git([(1, 0), (1, 2), (0, 2)])
    for omega in [(2, 1), (1, 3)]:
        rows = extended_lattice(git, omega)
        assert all(type(x) is Fraction for row in rows for x in row)
        assert oracle_coords(rows, (1, 0)) is not None and oracle_coords(rows, (0, 1)) is not None
        for sec in box_elements(git, validate_stability(git, omega)):
            assert oracle_coords(rows, sec.f) is not None
        # the index over Z^2 is 1 / |det| of the basis
        index = 1 / abs(fraction_det(rows))
        assert index.denominator == 1 and index >= 1


def test_hermite_canonical():
    H = hermite_row_form([(2, 1), (0, 3)])
    assert H == [(2, 1), (0, 3)]
    H2 = hermite_row_form([(0, 3), (2, 1)])
    assert H2 == H


def _is_integral_combination(v, rows):
    """Whether v is an integral combination of linearly independent rows."""
    sol = fraction_solve([list(col) for col in zip(*rows)], list(v))
    return sol is not None and all(x.denominator == 1 for x in sol)


def test_hermite_row_form_properties():
    rng = random.Random(2024)
    for _ in range(300):
        ncol = rng.randint(1, 4)
        nrow = rng.randint(1, 4)
        A = [tuple(rng.randint(-6, 6) for _ in range(ncol)) for _ in range(nrow)]
        H = hermite_row_form(A)
        # echelon with positive pivots, entries above each pivot in [0, pivot)
        pivots = []
        for row in H:
            col = next(j for j, x in enumerate(row) if x != 0)
            assert not pivots or col > pivots[-1]
            assert row[col] > 0
            pivots.append(col)
        for i, col in enumerate(pivots):
            assert all(0 <= above[col] < H[i][col] for above in H[:i])
        # the rows of H are independent, so each input row has unique
        # coordinates over them, which must be integral
        assert all(_is_integral_combination(a, H) for a in A)
        if fraction_rank(A) == nrow:
            # independent input rows: the converse is also a unique solve
            assert len(H) == nrow
            assert all(_is_integral_combination(h, A) for h in H)
        else:
            assert len(H) == fraction_rank(A)


def test_quotient_transversal_count():
    reps = quotient_transversal([(2, 0), (1, 3)])
    assert len(reps) == 6  # |det|
    assert len(set(reps)) == 6


def test_lattice_from_generators_is_the_hermite_basis():
    lat = lattice_from_generators([(Fraction(1, 2), 0), (0, 1), (Fraction(3, 2), 2)], 2)
    assert lat == ((Fraction(1, 2), 0), (0, 1))
    assert all(type(x) is Fraction for row in lat for x in row)
    with pytest.raises(ValueError, match="rank-2"):
        lattice_from_generators([(Fraction(1, 2), 1), (1, 2)], 2)


def test_lattice_dual():
    lat = lattice_from_generators([(Fraction(1, 2), 0), (0, 1)], 2)
    dual = fraction_dual(lat)
    for g in lat:
        for d in dual:
            assert vdot(g, d).denominator == 1
    assert dual == ((2, 0), (0, 1))


def test_lattice_dual_skew():
    # a non-diagonal lattice: duality must pair against the rows, not columns
    lat = lattice_from_generators([(Fraction(1, 12), Fraction(1, 6), Fraction(5, 12)),
                                   (0, 1, 0), (0, 0, 1)], 3)
    dual = fraction_dual(lat)
    for g in lat:
        for d in dual:
            assert vdot(g, d).denominator == 1
    assert oracle_coords(dual, (3, 2, 1)) is not None  # pairs integrally with every generator
    assert oracle_coords(dual, (1, 0, 0)) is None
    assert fraction_dual(dual) == lat


def _kernel_crossings():
    crossings = []
    for path in sorted((ROOT / "configs").glob("*.json")) + sorted(
            (ROOT / "bench" / "configs").glob("rank3_*.json")):
        cfg = load_config(str(path))
        crossings.append(wall_crossing(cfg["git"], cfg["omega_plus"], cfg["omega_minus"]))
    rng = random.Random(31)
    crossings += [random_crepant_crossing(rng, max_r=3, max_m=7) for _ in range(50)]
    return crossings


def test_anticone_kernel_matches_solve_square():
    """The cached inverse's coordinates equal a Fraction solve."""
    rng = random.Random(5)
    crossings = _kernel_crossings()
    assert any(wc.git.r == 3 for wc in crossings)
    for wc in crossings:
        D, r = wc.git.D, wc.git.r
        for delta in wc.A_plus.minimal + wc.A_minus.minimal:
            cols = [list(col) for col in zip(*(D[i] for i in delta))]
            vectors = list(D) + [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                       for _ in range(r)) for _ in range(3)]
            for v in vectors:
                assert anticone_coords(D, delta, v) == fraction_solve(cols, v)


@pytest.mark.parametrize("a, b", [
    ((1, -2, 3), (4, 0, -1)),
    ((Fraction(1, 2), Fraction(-2, 3), Fraction(3)), (Fraction(4), Fraction(0), Fraction(-1, 5))),
    ((1, Fraction(-2, 3), 3), (Fraction(4), 0, Fraction(-1, 5))),
])
def test_vector_helpers_keep_their_return_types(a, b):
    def fractions(v):
        return type(v) is tuple and all(type(x) is Fraction for x in v)

    assert fractions(ratvec(a)) and fractions(ratvec(b))
    assert type(vdot(a, b)) is Fraction and vdot(a, b) == sum(Fraction(x) * y for x, y in zip(a, b))
    # an existing Fraction passes through unchanged; no new one is built
    assert all(y is x for x, y in zip(a, ratvec(a)) if type(x) is Fraction)
    ints = intvec([2 * Fraction(x).denominator * x for x in a])
    assert type(ints) is tuple and all(type(x) is int for x in ints)
    with pytest.raises(ValueError, match="non-integral"):
        intvec([Fraction(1, 2)])
