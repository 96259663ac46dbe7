import cmath
import pathlib
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from helpers import (
    RANK_4_CONFIG,
    committed_crossings,
    frac_part,
    fraction_exact_part,
    inner_sum_coefficient,
    oracle_generic_lambdas,
    oracle_genericity_gap,
    oracle_genericity_gaps,
    oracle_inner_sum_coefficient,
    oracle_log_gamma,
    oracle_log_sin_pi,
    oracle_sample_lambdas,
)
from wallcross.cli import load_config, parse_config
from wallcross.gitfan import fixed_point_labels, make_git, wall_crossing
from wallcross.hypergeom import (
    PoleCollision,
    _exact_part,
    canonical_d_plus,
    conifold_point,
    generic_lambdas,
    gkz_ode_residual,
    inner_series,
    log_gamma,
    log_sin_pi,
    make_inner_spec,
    w_constant,
)
from wallcross.lattice import vdot

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_log_gamma_against_mpmath():
    mpmath.mp.dps = 30
    worst = 0.0
    zs = [complex(re, im) for re in [-4.3, -1.7, -0.2, 0.5, 1.0, 3.7, 8.2]
          for im in [-25.0, -3.2, -0.4, 0.3, 2.9, 18.0]]
    for z in zs:
        mine = log_gamma(z)
        assert type(mine) is complex
        ref = complex(mpmath.loggamma(mpmath.mpc(z.real, z.imag)))
        # branches may differ by multiples of 2 pi i; compare exponentials
        err = abs(cmath.exp(mine - ref) - 1)
        worst = max(worst, err)
    assert worst < 1e-12
    # the array form is the same kernel, elementwise (up to how the platform
    # vectorises complex arithmetic)
    arr = np.array(zs).reshape(7, 6)
    for fn in (log_gamma, log_sin_pi):
        got = fn(arr)
        assert got.shape == arr.shape
        np.testing.assert_allclose(got.ravel(), [fn(z) for z in zs], rtol=1e-15, atol=1e-15)


def test_log_sin_pi_far_from_the_real_axis_against_mpmath():
    # at |Im z| >= 20 the two exponentials of sin(pi z) differ by more than
    # e^{40 pi}, and the smaller one is left out
    mpmath.mp.dps = 30
    for im in (20.0, 20.5, 33.0, 45.0, -20.0, -27.3, -45.0):
        for re_ in (-7.3, -1.5, -0.25, 0.0, 0.5, 2.9):
            z = complex(re_, im)
            ref = mpmath.log(mpmath.sin(mpmath.pi * mpmath.mpc(z.real, z.imag)))
            # branches may differ by multiples of 2 pi i; compare exponentials
            assert abs(cmath.exp(log_sin_pi(z) - complex(ref)) - 1) < 1e-15 * abs(z), z


def test_log_gamma_large_imaginary():
    z = complex(-0.3, 38.0)
    mine = log_gamma(z)
    ref = complex(mpmath.loggamma(mpmath.mpc(z.real, z.imag)))
    assert abs(cmath.exp(mine - ref) - 1) < 1e-11


def _raises(oracle, z):
    try:
        oracle(z)
    except PoleCollision:
        return True
    return False


def test_log_gamma_pole():
    # a pole is a value: log_gamma is +inf at a nonpositive integer and
    # log_sin_pi -inf at an integer; next to a pole both stay finite
    assert log_gamma(0.0).real == np.inf and log_gamma(-3.0).real == np.inf
    out = log_gamma(np.array([0.5 + 1j, 2.0, -2.0, 3.5]))
    assert np.array_equal(np.isinf(out), [False, False, True, False]) and out[2].real == np.inf
    out = log_sin_pi(np.array([0.5, 0.0]))
    assert np.array_equal(np.isinf(out), [False, True]) and out[1].real == -np.inf
    assert np.all(np.isfinite(log_gamma(np.array([-2.0 + 1e-9, 1e-12j]))))
    # a reciprocal Gamma at its zero is an exact 0
    assert np.array_equal(np.exp(-log_gamma(np.array([0.0, -1.0, -5.0]))), np.zeros(3))


def test_log_gamma_kernel_raises_at_exact_poles_like_the_plain_kernel():
    # the kernels no longer raise: they return +inf (log_gamma) or -inf
    # (log_sin_pi) exactly where the plain kernels raise, though sin(pi z)
    # rounds to 0 only at z = 0; every other entry, next to an integer too,
    # keeps the plain kernel's bits
    near = np.array([-1.0 + 1e-15, 2.0 + 1e-300j, 3.0 - 4e-16, -0.5, -2.0 + 1e-9, 1e-12j])
    cases = (0.0, -0.0, -3.0, -1.0, 3 + 0j, near, np.array([2.5 + 1j, -2.0, 3.0]),
             np.array([4.0 + 0j] * 300 + [-7.0]), np.array([0.5, -40.0, 2.0]), np.array([0.3 + 25j, 1.5, 0.0]),
             np.array([[1.5, 0.0], [0.5j, 2.0]]), np.array([[1.5, 0.3 + 25j], [7.0, 0.25]]))
    for fn, oracle, sign in ((log_gamma, oracle_log_gamma, 1.0), (log_sin_pi, oracle_log_sin_pi, -1.0)):
        for z in cases:
            got = fn(z)
            assert np.shape(got) == np.shape(z) and (type(got) is complex or np.ndim(z))
            flat, out = np.ravel(np.asarray(z, dtype=complex)), np.ravel(got)
            poles = np.array([_raises(oracle, x) for x in flat])
            assert np.array_equal(np.isinf(out), poles) and (out[poles].real == sign * np.inf).all()
            assert np.isfinite(out[poles].imag).all()
            if not poles.all():
                assert np.array_equal(out[~poles], oracle(flat[~poles]))
    assert not _raises(oracle_log_sin_pi, near)


def _kernel_arguments():
    """Arrays of lengths 1 to 4097 in the right half-plane, in both
    half-planes with |Im| < 20, and with |Im| >= 20 of both signs, with
    the edges Re = 1/2 and |Im| = 20 among them."""
    rng = np.random.default_rng(61)
    edges = np.array([0.5, 0.5 + 3j, 0.5 - 20j, -1.5 + 20j, 2.0 - 20j, 0.25 + 19.999j, -0.5])
    yield edges
    for size in (1, 2, 3, 7, 8, 9, 14, 15, 16, 63, 255, 256, 257, 511, 1024, 4096, 4097):
        right = rng.uniform(0.5, 9.0, size) + 1j * rng.uniform(-19.5, 19.5, size)
        both = rng.uniform(-7.0, 7.0, size) + 1j * rng.uniform(-19.5, 19.5, size)
        far = (rng.uniform(-7.0, 7.0, size)
               + 1j * rng.choice([-1.0, 1.0], size) * rng.uniform(20.0, 45.0, size))
        yield from (right, both, far, np.concatenate([right, both, far]))


def test_log_gamma_kernel_matches_the_plain_kernel_bit_for_bit():
    # skipped masks and Lanczos terms added in place in one scratch row
    # change no bit of the term-by-term kernel, for scalars, 1-D and 2-D arrays
    for z in _kernel_arguments():
        for fn, oracle in ((log_gamma, oracle_log_gamma), (log_sin_pi, oracle_log_sin_pi)):
            assert np.array_equal(fn(z), oracle(z)), (fn.__name__, len(z))
            if len(z) % 2 == 0:
                grid = z.reshape(2, -1)
                got = fn(grid)
                assert got.shape == grid.shape and np.array_equal(got, oracle(grid))
            for x in (complex(z[0]), complex(z[-1])):
                got = fn(x)
                assert type(got) is complex and got == oracle(x)


def test_log_sin_pi_is_nan_at_a_nan_imaginary_part():
    nan = float("nan")
    with np.errstate(invalid="ignore"):
        assert cmath.isnan(log_sin_pi(complex(0.2, nan)))
        assert cmath.isnan(log_sin_pi(complex(nan, 0.3)))
        for z in (np.array([0.2 + 1j, complex(0.2, nan)]),
                  np.array([0.2 + 1j, complex(0.2, nan), 0.3 + 25j, complex(-1.1, nan), -0.4 - 30j])):
            out = log_sin_pi(z)
            nans = np.isnan(z.imag)
            assert np.isnan(out[nans]).all()
            assert np.array_equal(out[~nans], log_sin_pi(z[~nans]))


def test_conifold_point_values(conifold, resolution, gerbe_flop):
    assert conifold_point(conifold) == 1
    assert conifold_point(resolution) == Fraction(1, 4)
    assert conifold_point(gerbe_flop) == 1


def test_w_constant_values(conifold, resolution, gerbe_flop):
    assert w_constant(conifold) == 1
    assert w_constant(resolution) == 1
    assert w_constant(gerbe_flop) == 1
    git = make_git([(1,), (1,), (1,), (-1,), (-1,), (-1,)])
    wc = wall_crossing(git, (1,), (-1,))
    assert w_constant(wc) == 2


def test_inner_coefficient_normalization(conifold):
    label = fixed_point_labels(conifold.git, conifold.A_plus)[0]
    spec = make_inner_spec(conifold, label)
    lam = generic_lambdas(conifold, 1, seed=3)[0]
    assert inner_sum_coefficient(spec, 0, lam) == 1


def test_inner_coefficient_vanishes_at_zero_parameters(conifold):
    label = fixed_point_labels(conifold.git, conifold.A_plus)[0]
    spec = make_inner_spec(conifold, label)
    lam = (0j, 0j, 0j, 0j)
    for k in range(1, 5):
        assert inner_sum_coefficient(spec, k, lam) == 0
    assert inner_sum_coefficient(spec, np.arange(5), lam).tolist() == [1, 0, 0, 0, 0]


def _same_arrays(got, want):
    return all(a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
               for a, b in zip(got, want, strict=True))


def test_exact_part_matches_the_fraction_route_bit_for_bit(conifold):
    # the integer products reduced once per k against the Fraction products
    # reduced at every step: live, log and sign, bit for bit, for the exact
    # factors of every label across the wall of the committed crossings at
    # lambda = 0 (every factor with an integral d_j is then exact) and at a
    # generic sample, and for seeded factor sets; many vanish at some k
    ks = tuple(range(41))
    cases = set()
    for wc in committed_crossings():
        for label in fixed_point_labels(wc.git, wc.A_plus):
            if label.delta in wc.A_minus.minimal:
                continue
            spec = make_inner_spec(wc, label)
            for lam in ((0j,) * wc.git.m, generic_lambdas(wc, 1, 7)[0]):
                betas = spec.betas(lam)
                factors = tuple((d // spec.det, e) for d, e, b in zip(spec.d, spec.e, betas)
                                if b == 0 and d % spec.det == 0)
                # a factor at a negative d0 is exact only at lambda = 0, off
                # the generic samples the series are taken at
                if all(d0 >= 0 for d0, _e in factors):
                    cases.add(factors)
    rng = random.Random(17)
    cases |= {tuple((rng.randrange(13), rng.randrange(-3, 4)) for _ in range(rng.randrange(5)))
              for _ in range(200)}
    vanishing = 0
    for factors in cases:
        want = fraction_exact_part(factors, ks)
        assert _same_arrays(_exact_part(factors, ks), want), factors
        vanishing += not want[0].all()
    assert len(cases) > 150 and vanishing > 50, (len(cases), vanishing)
    # at lambda = 0 every conifold factor is exact, and k >= 1 vanishes
    spec = make_inner_spec(conifold, fixed_point_labels(conifold.git, conifold.A_plus)[0])
    lam = (0j,) * 4
    assert inner_sum_coefficient(spec, np.arange(5), lam).tolist() == [1, 0, 0, 0, 0]
    assert oracle_inner_sum_coefficient(spec, np.arange(5), lam).tolist() == [1, 0, 0, 0, 0]


def test_inner_coefficient_first_order(conifold):
    label = fixed_point_labels(conifold.git, conifold.A_plus)[0]
    assert label.delta == (0,)
    spec = make_inner_spec(conifold, label)
    lam = generic_lambdas(conifold, 1, seed=5)[0]
    b = spec.betas(lam)
    expected = b[2] * b[3] / (1 + b[1])
    got = inner_sum_coefficient(spec, 1, lam)
    assert abs(got - expected) < 1e-13 * abs(expected)


def test_canonical_d_plus_is_sector_compatible(all_examples):
    for wc in all_examples.values():
        for label in fixed_point_labels(wc.git, wc.A_plus):
            if label.delta in wc.A_minus.minimal:
                continue
            num, det = canonical_d_plus(wc, label)
            assert all(type(x) is int for x in num) and det > 0
            d = tuple(Fraction(x, det) for x in num)
            for i in label.delta:
                pairing = vdot(wc.git.D[i], d)
                assert pairing.denominator == 1 and pairing >= 0
            # the class of d is the sector
            diff = tuple(a - b for a, b in zip(d, label.f))
            assert all(frac_part(x) == 0 for x in diff)
            # d - e is not effective over delta
            j_plus = next(i for i in label.delta if wc.pair_e(i) > 0)
            assert vdot(wc.git.D[j_plus], d) < wc.pair_e(j_plus)


def test_gkz_ode_annihilates(all_examples):
    for wc in all_examples.values():
        lam = generic_lambdas(wc, 1, seed=9)[0]
        for label in fixed_point_labels(wc.git, wc.A_plus):
            if label.delta in wc.A_minus.minimal:
                continue
            spec = make_inner_spec(wc, label)
            resid, = gkz_ode_residual(inner_series([spec], 25, [lam]), [spec], [lam])
            assert resid < 1e-12


def test_gkz_ode_detects_corruption(conifold):
    label = fixed_point_labels(conifold.git, conifold.A_plus)[0]
    lam = generic_lambdas(conifold, 1, seed=9)[0]
    spec = make_inner_spec(conifold, label)
    ser, = inner_series([spec], 20, [lam])
    bad = list(ser.coeffs)
    bad[7] += 1e-3
    from wallcross.hypergeom import TruncatedSeries

    corrupted = TruncatedSeries(coeffs=tuple(bad), order=ser.order, exponent=ser.exponent)
    assert gkz_ode_residual([corrupted], [spec], [lam])[0] >= 1e-4


def test_gkz_ode_degenerate_series(conifold):
    label = fixed_point_labels(conifold.git, conifold.A_plus)[0]
    spec = make_inner_spec(conifold, label)
    lam = (0j,) * 4
    ser, = inner_series([spec], 10, [lam])
    assert ser.coeffs[0] == 1 and all(c == 0 for c in ser.coeffs[1:])
    assert gkz_ode_residual([ser], [spec], [lam])[0] == 0.0


def test_overflowing_series_is_carried_under_a_power_of_two():
    """At order 150 on local P^3 the coefficients overflow a float.  The
    series carries them under one factor 2**exponent: they are finite,
    equal the coefficients that do not overflow to rounding, and give a
    finite ODE residual, that of the degree-by-degree oracle bit for bit."""
    from helpers import oracle_gkz_ode_residual

    cfg = load_config(str(pathlib.Path(__file__).parent.parent / "bench" / "configs" / "local_p3.json"))
    wc = wall_crossing(cfg["git"], cfg["omega_plus"], cfg["omega_minus"])
    lam = generic_lambdas(wc, 1, seed=7)[0]
    spec = make_inner_spec(wc, fixed_point_labels(wc.git, wc.A_plus)[0])
    ser, = inner_series([spec], 150, [lam])
    plain = inner_sum_coefficient(spec, np.arange(151), lam)
    assert ser.exponent > 1024 and not np.isfinite(plain).all()
    carried = np.array(ser.coeffs)
    assert np.isfinite(carried).all() and 0.5 < np.abs(carried).max() <= 1.0
    # the largest coefficients that do not overflow, carried back
    fits = np.flatnonzero(np.isfinite(plain) & (np.abs(plain) > 2.0 ** (ser.exponent - 1000)))
    assert len(fits) > 20
    back = carried[fits] * 2.0 ** (ser.exponent - 1000) * 2.0 ** 1000
    assert np.max(np.abs(back - plain[fits]) / np.abs(plain[fits])) < 1e-12
    resid, = gkz_ode_residual([ser], [spec], [lam])
    assert resid < 1e-11 and resid == oracle_gkz_ode_residual(ser, spec, lam)


def test_ode_residual_is_unchanged_by_a_power_of_two(conifold, resolution):
    """The residual does not change, bit for bit, when every coefficient is
    multiplied by one power of two, up or down."""
    from wallcross.hypergeom import TruncatedSeries

    for wc in (conifold, resolution):
        lam = generic_lambdas(wc, 1, seed=5)[0]
        for label in fixed_point_labels(wc.git, wc.A_plus):
            spec = make_inner_spec(wc, label)
            ser, = inner_series([spec], 40, [lam])
            resid = gkz_ode_residual([ser], [spec], [lam])
            for p in (-200, 300):
                scaled = TruncatedSeries(coeffs=tuple(c * 2.0 ** p for c in ser.coeffs),
                                         order=ser.order, exponent=ser.exponent - p)
                assert gkz_ode_residual([scaled], [spec], [lam]) == resid


def test_coefficient_ratio_approaches_degeneration_point(conifold, resolution):
    for wc in (conifold, resolution):
        label = fixed_point_labels(wc.git, wc.A_plus)[0]
        spec = make_inner_spec(wc, label)
        lam = generic_lambdas(wc, 1, seed=13)[0]
        k = 400
        ck = inner_sum_coefficient(spec, k, lam)
        ck1 = inner_sum_coefficient(spec, k + 1, lam)
        limit = 1 / complex(conifold_point(wc))
        assert abs(ck1 / ck - limit) < 0.05 * abs(limit)


def test_w_crepancy_violation_detection():
    # a fake crossing record with broken pairings cannot arise from the
    # constructor, so check the two formulas agree on every valid example
    git = make_git([(2,), (1,), (-3,)])
    wc = wall_crossing(git, (1,), (-1,))
    assert w_constant(wc) == 2


def test_sample_lambdas_deterministic(conifold):
    a = oracle_sample_lambdas(4, 5, seed=99)
    b = oracle_sample_lambdas(4, 5, seed=99)
    assert a == b
    c = oracle_sample_lambdas(4, 5, seed=100)
    assert a != c
    assert generic_lambdas(conifold, 5, seed=99) == generic_lambdas(conifold, 5, seed=99)
    assert generic_lambdas(conifold, 5, seed=99) != generic_lambdas(conifold, 5, seed=100)


def test_generic_lambdas_respect_clearance(conifold):
    lams = generic_lambdas(conifold, 8, seed=1)
    assert len(lams) == 8
    assert (oracle_genericity_gaps(conifold, lams) > 1e-3).all()


def test_genericity_gaps_match_the_scalar_oracle(config_dir):
    # the array gaps equal the per-form scalar gaps to rounding, and no pool
    # sample sits that close to its clearance, so generic_lambdas keeps the
    # samples that the scalar filter keeps
    bench_dir = config_dir.parent / "bench" / "configs"
    paths = sorted(config_dir.glob("*.json")) + sorted(bench_dir.glob("*.json"))
    for path in paths:
        cfg = load_config(str(path))
        wc = wall_crossing(cfg["git"], cfg["omega_plus"], cfg["omega_minus"])
        count, clearance = cfg["samples"], cfg["tolerances"]["pole_clearance"]
        pool = oracle_sample_lambdas(wc.git.m, 2 * count + 4, cfg["seed"])
        scalar = np.array([oracle_genericity_gap(wc, lam) for lam in pool])
        assert np.abs(oracle_genericity_gaps(wc, pool) - scalar).max() <= 1e-15, path.name
        assert np.abs(scalar - clearance).min() > 1e-12, path.name
        expected = [lam for lam, gap in zip(pool, scalar) if gap > clearance][:count]
        assert generic_lambdas(wc, count, cfg["seed"], clearance) == expected, path.name


def _sampled_crossings(monkeypatch):
    """(name, crossing, seed, clearance) of every committed config, the
    rank-4 crossing and exact-random's seed-1 draws, each at its own seed
    and pole clearance."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    raws = [(path.stem, load_config(str(path))) for folder in ("configs", "bench/configs")
            for path in sorted((ROOT / folder).glob("*.json"))]
    raws.append(("rank_4", parse_config(RANK_4_CONFIG)))
    raws += [("random_s1_%02d" % k, parse_config(raw)) for k, raw in enumerate(workloads.random_configs(1))]
    return [(name, wall_crossing(cfg["git"], cfg["omega_plus"], cfg["omega_minus"]), cfg["seed"],
             cfg["tolerances"]["pole_clearance"]) for name, cfg in raws]


def _outcome(sampler, *args):
    try:
        return sampler(*args)
    except PoleCollision:
        return PoleCollision


def test_generic_lambdas_match_the_eager_oracle(monkeypatch):
    # drawn in batches and stopped once enough pass, the samples are those
    # of drawing all 2 count + 4 first and filtering them at once
    cases = _sampled_crossings(monkeypatch)
    assert len(cases) == 3 + 14 + 1 + 74
    for name, wc, seed, clearance in cases:
        for count in (1, 2, 3, 5, 8, 20):
            got = _outcome(generic_lambdas, wc, count, seed, clearance)
            assert got == _outcome(oracle_generic_lambdas, wc, count, seed, clearance), (name, count)
            assert got is PoleCollision or len(got) == count


def test_generic_lambdas_name_the_draws_that_cleared(conifold):
    # a clearance above every gap passes none of the 2 count + 4 draws; one
    # below the two largest gaps of the pool passes those two
    with pytest.raises(PoleCollision, match="^could not draw 3 generic samples: 0 of 10 draws had a "
                                            "genericity gap above 1000$"):
        generic_lambdas(conifold, 3, 7, clearance=1e3)
    gaps = sorted(oracle_genericity_gaps(conifold, oracle_sample_lambdas(conifold.git.m, 10, 7)))
    with pytest.raises(PoleCollision, match="2 of 10 draws had a genericity gap above"):
        generic_lambdas(conifold, 3, 7, clearance=gaps[-3])
