import itertools
import pathlib
import random
from fractions import Fraction

import pytest

from helpers import (
    _oracle_saturated,
    all_anticones,
    assert_frame_properties,
    assert_sigma_transition,
    committed_crossings,
    fraction_det,
    fraction_dual,
    frac_part,
    in_open_cone,
    oracle_anticones,
    oracle_box,
    oracle_box_classes,
    oracle_coords,
    oracle_wall_frame,
    on_wall,
    random_crepant_crossing,
)
from wallcross import gitfan
from wallcross.gitfan import (
    EmptyQuotient,
    NotAdjacent,
    NotCrepant,
    NotDeligneMumford,
    WallFrameError,
    box_elements,
    fixed_point_labels,
    make_git,
    next_to_pairs,
    validate_stability,
    wall_crossing,
    wall_frame,
)
from wallcross.lattice import vdot


def test_conifold_anticones():
    git = make_git([(1,), (1,), (-1,), (-1,)])
    A = validate_stability(git, (1,))
    anticones = list(all_anticones(A))
    assert len(anticones) == 12
    assert all(I & {0, 1} for I in map(set, anticones))
    assert A.minimal == ((0,), (1,))


def test_validate_errors():
    git = make_git([(1,), (1,), (-2,)])
    with pytest.raises(NotDeligneMumford):
        validate_stability(git, (0,))
    git2 = make_git([(1,), (2,)])
    with pytest.raises(EmptyQuotient):
        validate_stability(git2, (-1,))


def test_weighted_projective_line():
    git = make_git([(2,), (2,)])
    A = validate_stability(git, (1,))
    assert sorted(all_anticones(A)) == [(0,), (0, 1), (1,)]


def test_minimal_anticones_examples(conifold, gerbe_flop):
    assert conifold.A_plus.minimal == ((0,), (1,))
    assert conifold.A_minus.minimal == ((2,), (3,))
    assert gerbe_flop.A_plus.minimal == ((0, 1), (0, 2))


def test_s_set_examples(conifold):
    assert conifold.A_plus.s_set == ()
    git = make_git([(1,), (1,), (-2,)])
    assert validate_stability(git, (-1,)).s_set == (2,)
    git2 = make_git([(1,), (1,), (-1,)])
    assert validate_stability(git2, (-1,)).s_set == (2,)


def test_box_examples(conifold):
    for A in (conifold.A_plus, conifold.A_minus):
        box = box_elements(conifold.git, A)
        assert len(box) == 1 and box[0].is_zero

    git = make_git([(1,), (1,), (-2,)])
    box = box_elements(git, validate_stability(git, (-1,)))
    assert [(s.f, s.age, s.I_f) for s in box] == [
        ((Fraction(0),), Fraction(0), (0, 1, 2)),
        ((Fraction(1, 2),), Fraction(1), (2,)),
    ]

    git2 = make_git([(2,), (2,)])
    box2 = box_elements(git2, validate_stability(git2, (1,)))
    assert [(s.f, s.age, s.I_f) for s in box2] == [
        ((Fraction(0),), Fraction(0), (0, 1)),
        ((Fraction(1, 2),), Fraction(0), (0, 1)),
    ]


def test_fixed_point_labels_share_the_cached_box_classes(gerbe_flop):
    git, A = gerbe_flop.git, gerbe_flop.A_minus
    box = box_elements(git, A)
    assert isinstance(box, tuple) and box_elements(git, A) is box
    labels = fixed_point_labels(git, A)
    assert labels and all(any(label.sector is sec for sec in box) for label in labels)


def test_analyze_enumerates_box_classes_once_per_side(config_dir):
    from wallcross import cli, gitfan

    cfg = cli.load_config(str(config_dir / "gerbe_flop.json"))
    gitfan._box_classes.cache_clear()
    cli.cmd_analyze(cfg)
    info = gitfan._box_classes.cache_info()
    assert info.misses == 2 and info.hits > 0


def _inverse(box, sec):
    """The box class of -f, looked up among the enumerated classes."""
    f = tuple(frac_part(-x) for x in sec.f)
    return next(s for s in box if s.f == f)


def test_inv_sector():
    git = make_git([(2,), (2,)])
    A = validate_stability(git, (1,))
    box = box_elements(git, A)
    zero, half = box
    assert _inverse(box, zero) is zero
    assert _inverse(box, half) is half  # 2-torsion is self-inverse


def test_inv_sector_age_relation():
    # the box classes are closed under inversion, which keeps the isotropy
    # and complements the age over the moving directions
    git = make_git([(1,), (1,), (-3,)])
    A = validate_stability(git, (-1,))
    box = box_elements(git, A)
    assert len(box) == 3
    for sec in box:
        inv = _inverse(box, sec)
        assert inv.I_f == sec.I_f
        n_moving = sum(
            1 for i in range(git.m)
            if i not in sec.I_f and frac_part(vdot(git.D[i], sec.f)) != 0
        )
        assert sec.age + inv.age == n_moving


def test_classification_cases(conifold, resolution, gerbe_flop):
    assert conifold.case == "I"
    assert resolution.case == "II-i"
    assert gerbe_flop.case == "III"
    assert gerbe_flop.e == (2, -1)


def test_wall_crossing_errors():
    git = make_git([(1,), (1,), (-1,)])
    with pytest.raises(NotCrepant):
        wall_crossing(git, (1,), (-1,))
    git2 = make_git([(1,), (1,), (-1,), (-1,)])
    with pytest.raises(NotAdjacent):
        wall_crossing(git2, (1,), (2,))


def test_crepancy_sum(all_examples):
    for wc in all_examples.values():
        assert sum(wc.pair_e(i) for i in range(wc.git.m)) == 0


def test_xi_kronecker(all_examples):
    # xi_j = col / det on an integer column over a positive det: D_i . col
    # is det for i = j and 0 for the other extended characters
    for wc in all_examples.values():
        for S, xi in ((wc.S_plus, wc.xi_plus), (wc.S_minus, wc.xi_minus)):
            for i in S:
                for j in S:
                    col, det = xi[j]
                    assert all(type(x) is int for x in col) and type(det) is int and det > 0
                    assert sum(a * b for a, b in zip(wc.git.D[i], col)) == (det if i == j else 0)


def test_next_to_pairs_conifold(conifold):
    pairs = {(p.delta, q.delta) for p, q in next_to_pairs(conifold)}
    assert pairs == {((0,), (2,)), ((0,), (3,)), ((1,), (2,)), ((1,), (3,))}
    assert all(p.sector.is_zero and q.sector.is_zero for p, q in next_to_pairs(conifold))


def test_next_to_pairs_resolution(resolution):
    pairs = [(p.delta, q.f) for p, q in next_to_pairs(resolution)]
    assert sorted(pairs) == [
        ((0,), (Fraction(0),)),
        ((0,), (Fraction(1, 2),)),
        ((1,), (Fraction(0),)),
        ((1,), (Fraction(1, 2),)),
    ]


def test_common_anticone_in_no_pair(gerbe_flop):
    for p, q in next_to_pairs(gerbe_flop):
        assert p.delta not in gerbe_flop.A_minus.minimal
        assert q.delta not in gerbe_flop.A_plus.minimal
        assert (0, 2) not in (p.delta, q.delta)


def test_next_to_symmetric(all_examples):
    for name, wc in all_examples.items():
        swapped = wall_crossing(wc.git, wc.omega_minus, wc.omega_plus)
        fwd = {(p.delta, p.f, q.delta, q.f) for p, q in next_to_pairs(wc)}
        back = {(q.delta, q.f, p.delta, p.f) for p, q in next_to_pairs(swapped)}
        assert fwd == back


def test_coordinate_change_examples(conifold, resolution):
    cc = wall_frame(conifold).change
    assert (cc.c, cc.A, cc.B) == (1, 1, 1) and cc.c_i == ()
    cc2 = wall_frame(resolution).change
    assert (cc2.c, cc2.A, cc2.B) == (Fraction(1, 2), 1, 2)


def test_coordinate_change_swap_reciprocal(all_examples):
    for wc in all_examples.values():
        swapped = wall_crossing(wc.git, wc.omega_minus, wc.omega_plus)
        assert wall_frame(swapped).change.c == 1 / wall_frame(wc).change.c


def test_wall_frame_bases_integral_and_adapted(all_examples):
    from wallcross.lattice import extended_lattice

    for wc in all_examples.values():
        frame = wall_frame(wc)
        assert all(type(x) is int for v in frame.sfp_plus + frame.sfp_minus for x in v)
        dual_p = fraction_dual(extended_lattice(wc.git, wc.omega_plus))
        dual_m = fraction_dual(extended_lattice(wc.git, wc.omega_minus))
        for k in range(wc.git.r - 1):
            assert frame.sfp_plus[k] == frame.sfp_minus[k]
            assert on_wall(wc, frame.sfp_plus[k])
            assert oracle_coords(dual_p, frame.sfp_plus[k]) is not None
            assert oracle_coords(dual_m, frame.sfp_plus[k]) is not None
        assert not on_wall(wc, frame.sfp_plus[-1])
        assert not on_wall(wc, frame.sfp_minus[-1])
        assert vdot(frame.sfp_plus[-1], wc.e) > 0
        assert vdot(frame.sfp_minus[-1], wc.e) < 0


def test_dual_of_extended_matches_the_fraction_dual():
    # the extended lattice's rows, built from the anticone inverses, are the
    # Hermite basis of Z^r and the oracle's Fraction box classes; the
    # integer Hermite rows from the cleared inverse equal the Hermite form of
    # the Fraction inverse's columns; coordinates over them are the Fraction
    # solve's, and a point outside raises
    from wallcross.lattice import extended_lattice, lattice_from_generators

    rng = random.Random(23)
    crossings = list(committed_crossings()) + [random_crepant_crossing(rng) for _ in range(100)]
    crossings += [_frame_case(name) for name in sorted({**FORMERLY_UNFRAMED, **SPLIT_SIDES})]
    for wc in crossings:
        units = [tuple(int(i == j) for j in range(wc.git.r)) for i in range(wc.git.r)]
        for omega, A in ((wc.omega_plus, wc.A_plus), (wc.omega_minus, wc.A_minus)):
            gens = units + [sec.f for sec in oracle_box_classes(wc.git, A)]
            assert extended_lattice(wc.git, omega) == lattice_from_generators(gens, wc.git.r)
            dual = gitfan._dual_of_extended(wc.git, A)
            assert dual == fraction_dual(extended_lattice(wc.git, omega))
            assert all(type(x) is int for row in dual for x in row)
            for v in wc.git.D:
                coords = oracle_coords(dual, v)
                if coords is None:
                    with pytest.raises(ValueError, match="not in the lattice"):
                        gitfan._coords_in(dual, v)
                else:
                    assert gitfan._coords_in(dual, v) == coords


def test_anticones_match_oracle(all_examples):
    # production anticone sets vs the independent strict-cone oracle,
    # exhaustively over all subsets
    for wc in all_examples.values():
        git = wc.git
        for omega, A in ((wc.omega_plus, wc.A_plus), (wc.omega_minus, wc.A_minus)):
            oracle = set(oracle_anticones(git, omega))
            for size in range(git.m + 1):
                for I in itertools.combinations(range(git.m), size):
                    assert (I in oracle) == A.contains(I)


def test_closure_under_enlargement(all_examples):
    for wc in all_examples.values():
        A = wc.A_plus
        for I in all_anticones(A):
            for extra in range(wc.git.m):
                assert A.contains(tuple(sorted(set(I) | {extra})))


def test_randomized_trichotomy_and_oracle():
    rng = random.Random(2024)
    for _ in range(25):
        wc = random_crepant_crossing(rng)
        git = wc.git
        # S sets recomputed from the oracle
        for omega, S in ((wc.omega_plus, wc.S_plus), (wc.omega_minus, wc.S_minus)):
            oracle_S = tuple(
                i
                for i in range(git.m)
                if not in_open_cone(git.D, tuple(j for j in range(git.m) if j != i), omega)
            )
            assert oracle_S == S
        # brute-force case predicates from the S and M data
        Sp, Sm = set(wc.S_plus), set(wc.S_minus)
        Mp, Mm = set(wc.M_plus), set(wc.M_minus)
        cases = []
        if Sp == Sm and len(Mp) >= 2 and len(Mm) >= 2:
            cases.append("I")
        if Sm - Sp and Sm - Sp == Mm and len(Mm) == 1 and len(Mp) >= 2 and Sp < Sm:
            cases.append("II-i")
        if Sp - Sm and Sp - Sm == Mp and len(Mp) == 1 and len(Mm) >= 2 and Sm < Sp:
            cases.append("II-ii")
        if len(Mp) == 1 and len(Mm) == 1 and Sp - Sm == Mp and Sm - Sp == Mm:
            cases.append("III")
        assert cases == [wc.case]


def test_fixed_point_labels_counts(conifold, resolution, gerbe_flop):
    assert len(fixed_point_labels(conifold.git, conifold.A_plus)) == 2
    assert len(fixed_point_labels(resolution.git, resolution.A_minus)) == 2
    assert len(fixed_point_labels(gerbe_flop.git, gerbe_flop.A_plus)) == 4


def test_box_matches_brute_force_oracle(all_examples):
    for wc in all_examples.values():
        for A in (wc.A_plus, wc.A_minus):
            got = sorted(s.f for s in box_elements(wc.git, A))
            assert got == oracle_box(wc.git, A)


def test_box_oracle_on_skew_anticone_matrices():
    # a crossing whose anticone matrices are far from symmetric; the sector
    # classes live in the quotient by the column lattice, which differs from
    # the row lattice here
    git = make_git([(-1, -2), (2, 2), (-1, 1), (1, 0), (-1, -1)])
    wc = wall_crossing(git, (Fraction(-5, 4), Fraction(1)), (Fraction(-3, 4), Fraction(1)))
    box_minus = sorted(s.f for s in box_elements(git, wc.A_minus))
    assert box_minus == [
        (Fraction(0), Fraction(0)),
        (Fraction(1, 4), Fraction(1, 4)),
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(3, 4), Fraction(3, 4)),
    ]
    assert box_minus == oracle_box(git, wc.A_minus)
    assert sorted(s.f for s in box_elements(git, wc.A_plus)) == oracle_box(git, wc.A_plus)


def test_box_matches_oracle_randomized():
    rng = random.Random(4242)
    for _ in range(20):
        wc = random_crepant_crossing(rng, max_r=2, max_m=5)
        for A in (wc.A_plus, wc.A_minus):
            got = sorted(s.f for s in box_elements(wc.git, A))
            assert got == oracle_box(wc.git, A)


BENCH_CONFIGS = pathlib.Path(__file__).parent.parent / "bench" / "configs"
RANK3 = sorted(p.stem for p in BENCH_CONFIGS.glob("rank3_*.json"))

# Crossings whose frame the radius-24 search did not find: the draws
# (seed, index) of random_crepant_crossing(random.Random(seed), max_r=3), and
# the benchmark's seeded draw random_s1_73.
F = Fraction
FORMERLY_UNFRAMED = {
    "s101_d07": ([(-1, 4, 3), (2, -2, -1), (0, -4, 0), (1, -5, -2), (-1, 2, 1), (-1, 3, 2), (0, 1, -1)],
                 (F(1, 4), F(-45, 4), F(-5, 4)), (F(-1, 4), F(-43, 4), F(-3, 4))),
    "s101_d11": ([(-1, -1, 0), (8, 5, 7), (6, 5, 2), (6, 4, 5), (0, 0, -1), (-9, -5, -6), (-8, -7, -5)],
                 (F(79, 16), F(63, 16), F(31, 16)), (F(81, 16), F(65, 16), F(33, 16))),
    "s103_d01": ([(6, 8, -6), (3, 4, -2), (1, 2, -2), (2, 4, -5), (0, 0, 1), (0, 2, -2)],
                 (F(23, 4), F(55, 4), F(-47, 4)), (F(25, 4), F(57, 4), F(-49, 4))),
    "s106_d11": ([(-2, 0), (2, -2), (2, 0), (4, -1), (1, 1), (-1, 2)],
                 (F(15, 4), F(1, 4)), (F(17, 4), F(-1, 4))),
    "s107_d36": ([(10, -9, 6), (-9, 7, -6), (2, -4, 0), (-3, 2, -1), (1, -3, -1), (1, 2, 2), (-6, 7, -3)],
                 (F(19, 4), F(-23, 4), F(7, 4)), (F(21, 4), F(-25, 4), F(9, 4))),
    "s109_d31": ([(2, 1, 2), (2, -1, 1), (4, 5, 2), (5, 5, 2), (1, 4, 0)],
                 (F(39, 4), F(35, 4), 5), (F(41, 4), F(37, 4), 5)),
    "s114_d08": ([(-5, -1, 1), (-2, -1, 1), (2, 2, -4), (-2, -2, 3), (0, 2, -1), (2, 1, -1)],
                 (F(-21, 4), -2, F(9, 4)), (F(-19, 4), -2, F(7, 4))),
    "s117_d07": ([(-1, 1, 1), (3, 5, 1), (1, -2, -1), (3, 2, 0), (2, -1, 0), (0, 0, 0), (1, 0, -1)],
                 (F(39, 8), F(23, 8), F(-1, 8)), (F(41, 8), F(25, 8), F(1, 8))),
    "s121_d12": ([(-1, -4, -3), (-2, -3, -4), (2, 5, 6), (2, 2, 3), (0, 1, 1), (-2, -2, -5), (2, 6, 4)],
                 (0, F(23, 4), F(-1, 4)), (0, F(25, 4), F(1, 4))),
    "s122_d05": ([(-1, 0, 1), (-3, 2, 1), (2, -2, -2), (-2, 0, 1), (-5, 5, 1), (3, -4, 0), (5, -1, -1)],
                 (F(-89, 8), F(49, 8), F(41, 8)), (F(-87, 8), F(47, 8), F(39, 8))),
    "random_s1_73": ([(-3, 1), (2, 1), (-3, 0), (-2, 1), (4, 2), (-1, -2), (-3, -3)],
                     (F(-25, 4), F(-1, 4)), (F(-23, 4), F(1, 4))),
}
FRAME_CASES = RANK3 + sorted(FORMERLY_UNFRAMED)

# Rank-3 draws (as above) with a side whose splitting indices S are all
# shared, S = S_zero != (), and a rank-1 facet: there the last vector lives
# in the side sublattice cut out by the splitting vectors, and the lift
# v0 + t g runs with g != 0.  s103_d01 and s109_d31 above are two more.
SPLIT_SIDES = {
    "s100_d28": ([(-8, 2, 5), (-2, 0, 1), (-1, -1, 0), (5, -1, -2), (-2, -2, 0), (4, 2, -2)],
                 (F(-69, 4), -5, F(45, 4)), (F(-67, 4), -5, F(43, 4))),
    "s101_d26": ([(-3, -2, -4), (4, 0, 0), (1, -2, -1), (0, 2, 2), (3, 1, 2)],
                 (F(31, 4), 6, F(23, 4)), (F(33, 4), 6, F(25, 4))),
    "s102_d26": ([(-1, 0, -2), (-3, -2, -1), (0, -2, 0), (2, 1, 2), (-2, -4, 0), (3, 4, 0)],
                 (F(15, 4), F(-9, 4), 4), (F(17, 4), F(-7, 4), 4)),
    "s106_d03": ([(1, 1, -1), (1, 1, 0), (0, 1, -2), (-2, -1, 1), (0, 1, 2), (0, -1, 0)],
                 (F(11, 4), F(-5, 4), F(1, 4)), (F(13, 4), F(-3, 4), F(-1, 4))),
    "s106_d29": ([(1, 1, 3), (-2, 0, 0), (2, -2, 3), (-2, 1, -2), (1, 0, 2), (-1, 1, 0)],
                 (F(19, 4), -5, F(35, 4)), (F(21, 4), -5, F(37, 4))),
}


def _frame_case(name):
    literal = {**FORMERLY_UNFRAMED, **SPLIT_SIDES}
    if name in literal:
        D, omega_plus, omega_minus = literal[name]
        return wall_crossing(make_git(D), omega_plus, omega_minus)
    from wallcross import cli

    cfg = cli.load_config(str(BENCH_CONFIGS / (name + ".json")))
    return wall_crossing(cfg["git"], cfg["omega_plus"], cfg["omega_minus"])


def _construct_only(monkeypatch):
    """Switch the smallest-first rule off, so that every frame is built by
    the Hilbert-pair and lift construction.  A rank-1 facet keeps its radius-1
    search, which is complete there."""
    search_wall = gitfan._search_wall
    monkeypatch.setattr(gitfan, "_search_wall", lambda N, ell: search_wall(N, ell) if ell == 1 else None)
    monkeypatch.setattr(gitfan, "_search_last", lambda N, E, L, sign: None)


@pytest.mark.parametrize("name", FRAME_CASES)
def test_wall_frame_properties(name):
    wc = _frame_case(name)
    frame = wall_frame(wc)
    assert_frame_properties(wc, frame)
    assert_sigma_transition(wc, frame)


@pytest.mark.parametrize("name", FRAME_CASES + sorted(SPLIT_SIDES))
def test_constructed_wall_frame_properties(name, monkeypatch):
    wc = _frame_case(name)
    if name in SPLIT_SIDES:
        assert any(S and set(S) == set(wc.S_zero) for S in (wc.S_plus, wc.S_minus))
        assert wc.git.r - 1 - len(wc.S_zero) == 1
    _construct_only(monkeypatch)
    frame = wall_frame(wc)
    assert_frame_properties(wc, frame)
    assert_sigma_transition(wc, frame)


def test_wall_frame_matches_the_search_oracle():
    # wherever the radius-24 Fraction search answers, the compiled rule
    # gives the same frame; elsewhere a frame with the frame properties or
    # WallFrameError
    rng = random.Random(14)
    unanswered = 0
    for _ in range(150):
        wc = random_crepant_crossing(rng, max_r=3, max_m=5)
        try:
            expected = oracle_wall_frame(wc)
        except ValueError:
            unanswered += 1
            try:
                assert_frame_properties(wc, wall_frame(wc))
            except WallFrameError:
                pass
            continue
        assert wall_frame(wc) == expected
    assert unanswered >= 1


def test_wall_frame_error_names_side_and_invariant(conifold):
    from dataclasses import replace

    # a record whose two sides are the same chamber: its nef cone has no
    # ray on the minus side of the wall
    same = replace(conifold, omega_minus=conifold.omega_plus, A_minus=conifold.A_plus)
    with pytest.raises(WallFrameError, match="^minus: the nef cone has no ray on this side"):
        wall_frame(same)


def test_integer_determinant_matches_fraction_elimination():
    from wallcross.lattice import _int_det

    rng = random.Random(5)
    for n in range(0, 6):
        for _ in range(30):
            mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if n and rng.random() < 0.2:
                mat[-1] = list(mat[0])
            assert _int_det(mat) == fraction_det(mat)


def test_saturation_matches_the_minor_oracle():
    # the Hermite pivots of the transpose against the gcd of the maximal
    # minors, on rows that are often dependent or of small entries
    rng = random.Random(17)
    seen = set()
    for _ in range(2000):
        n = rng.randint(1, 5)
        bound = rng.choice((1, 2, 3, 6))
        rows = [tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(rng.randint(1, n))]
        if len(rows) > 1 and rng.random() < 0.2:
            rows[-1] = tuple(2 * x for x in rows[0])
        saturated = gitfan._saturated(rows)
        assert saturated == _oracle_saturated(rows), rows
        seen.add(saturated)
    assert seen == {True, False}


def test_label_text_is_the_text_of_its_fraction_views():
    # reports name a label by its delta and f; the text is written from the
    # sector's integers, and must read as the Fractions print
    assert all(gitfan.ratio_text(n, d) == str(Fraction(n, d)) for n in range(-13, 14) for d in range(1, 14))
    rng = random.Random(61)
    for wc in list(committed_crossings()) + [random_crepant_crossing(rng) for _ in range(40)]:
        for label in wc.labels_plus + wc.labels_minus:
            assert str(label) == "delta=%s f=%s" % (list(label.delta), [str(x) for x in label.f])
