import itertools
import random
from fractions import Fraction

import pytest

from helpers import in_open_cone, oracle_anticones, oracle_box, random_crepant_crossing
from wallcross.gitfan import (
    EmptyQuotient,
    NotAdjacent,
    NotCrepant,
    NotDeligneMumford,
    box_elements,
    coordinate_change,
    fixed_point_labels,
    inv_sector,
    make_git,
    minimal_anticones,
    next_to_pairs,
    s_set,
    validate_stability,
    wall_crossing,
    wall_frame,
)
from wallcross.lattice import frac_part, vdot


def test_conifold_anticones():
    git = make_git([(1,), (1,), (-1,), (-1,)])
    A = validate_stability(git, (1,))
    all_anticones = list(A.all_anticones())
    assert len(all_anticones) == 12
    assert all(I & {0, 1} for I in map(set, all_anticones))
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
    assert sorted(A.all_anticones()) == [(0,), (0, 1), (1,)]


def test_minimal_anticones_examples(conifold, gerbe_flop):
    assert minimal_anticones(conifold.A_plus) == [(0,), (1,)]
    assert minimal_anticones(conifold.A_minus) == [(2,), (3,)]
    assert minimal_anticones(gerbe_flop.A_plus) == [(0, 1), (0, 2)]


def test_s_set_examples(conifold):
    assert s_set(conifold.A_plus) == ()
    git = make_git([(1,), (1,), (-2,)])
    assert s_set(validate_stability(git, (-1,))) == (2,)
    git2 = make_git([(1,), (1,), (-1,)])
    assert s_set(validate_stability(git2, (-1,))) == (2,)


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


def test_box_classes_are_an_immutable_tuple_relabelled_by_side(gerbe_flop):
    git, A = gerbe_flop.git, gerbe_flop.A_minus
    plain = box_elements(git, A)
    assert isinstance(plain, tuple) and all(s.side is None for s in plain)
    sided = box_elements(git, A, side="minus")
    assert [s.side for s in sided] == ["minus"] * len(plain)
    assert [(s.f, s.I_f, s.age) for s in sided] == [(s.f, s.I_f, s.age) for s in plain]


def test_analyze_enumerates_box_classes_once_per_side(config_dir):
    from wallcross import cli, gitfan

    cfg = cli.load_config(str(config_dir / "gerbe_flop.json"))
    gitfan._box_classes.cache_clear()
    cli.cmd_analyze(cfg)
    info = gitfan._box_classes.cache_info()
    assert info.misses == 2 and info.hits > 0


def test_inv_sector():
    git = make_git([(2,), (2,)])
    A = validate_stability(git, (1,))
    zero, half = box_elements(git, A)
    assert inv_sector(git, A, zero) == zero
    assert inv_sector(git, A, half) == half  # 2-torsion is self-inverse


def test_inv_sector_age_relation():
    git = make_git([(1,), (1,), (-3,)])
    A = validate_stability(git, (-1,))
    for sec in box_elements(git, A):
        inv = inv_sector(git, A, sec)
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
    for wc in all_examples.values():
        for S, xi in ((wc.S_plus, wc.xi_plus), (wc.S_minus, wc.xi_minus)):
            for i in S:
                for j in S:
                    assert vdot(wc.git.D[i], xi[j]) == (1 if i == j else 0)


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
    cc = coordinate_change(conifold)
    assert (cc.c, cc.A, cc.B) == (1, 1, 1) and cc.c_i == ()
    cc2 = coordinate_change(resolution)
    assert (cc2.c, cc2.A, cc2.B) == (Fraction(1, 2), 1, 2)


def test_coordinate_change_swap_reciprocal(all_examples):
    for wc in all_examples.values():
        swapped = wall_crossing(wc.git, wc.omega_minus, wc.omega_plus)
        assert coordinate_change(swapped).c == 1 / coordinate_change(wc).c


def test_wall_frame_bases_integral_and_adapted(all_examples):
    from wallcross.lattice import extended_lattice

    for wc in all_examples.values():
        frame = wall_frame(wc)
        dual_p = extended_lattice(wc.git, wc.omega_plus).dual()
        dual_m = extended_lattice(wc.git, wc.omega_minus).dual()
        for k in range(wc.git.r - 1):
            assert frame.sfp_plus[k] == frame.sfp_minus[k]
            assert wc.on_wall(frame.sfp_plus[k])
            assert dual_p.contains(frame.sfp_plus[k])
            assert dual_m.contains(frame.sfp_plus[k])
        assert not wc.on_wall(frame.sfp_plus[-1])
        assert not wc.on_wall(frame.sfp_minus[-1])
        assert vdot(frame.sfp_plus[-1], wc.e) > 0
        assert vdot(frame.sfp_minus[-1], wc.e) < 0


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
        for I in A.all_anticones():
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
