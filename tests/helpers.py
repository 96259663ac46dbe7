"""Shared test utilities: the independent oracles and a seeded generator of
random crepant wall-crossings.

Each oracle decides by its own search or elimination, so it and the
production path it checks can cross-validate each other:
- the cone oracle decides strict membership in an open cone by exact
  Fourier-Motzkin elimination;
- the box oracle scans a common refinement of the anticone lattices;
- the wall-frame oracle is the radius-24 brute-force search;
- the Fraction oracles of the integer exact layer solve every cone test by
  rational elimination, find line multiples by a candidate loop, match
  next-to pairs by a double loop and reduce character lifts by frac_part;
- the continuation oracle extracts a connection coefficient numerically
  from grouped left residues of the Barnes integral;
- the pull-push oracle multiplies Laurent polynomials in the S_j and the
  root generator t, then averages t over its roots, and builds a point
  class as a product of K-classes (oracle_point_class);
- the Gram reference (reference_gram) adds each fixed point's outer
  product in turn, its normal factors from the oracle forms, against the
  Gram of stacked points;
- the restriction oracles (oracle_restrict_u, oracle_theta_restrict,
  oracle_restriction_terms) solve the anticone coordinates of each
  character by fraction_solve and keep the forms as Fraction coefficient
  tuples, and the phases of restricted terms as Fraction pairings with a
  rational lift;
- the genericity oracle evaluates each of those forms at each sample as a
  Python scalar, against the array of all forms;
- the sampler oracle (oracle_generic_lambdas) draws all 2 count + 4
  samples one uniform at a time (oracle_sample_lambdas) and filters them at
  once (oracle_genericity_gaps), against the sampler that draws in batches
  and stops when enough pass;
- the coefficient oracle (oracle_coefficient_value) evaluates a connection
  coefficient at one sample in cmath scalars, against the one array
  evaluation of every cell at every sample;
- the Barnes-line oracle integrates one point over the whole line
  |Im s| <= t_max, with the integrand evaluated afresh for that point;
- the Barnes-line set-up oracle (oracle_line_setup) scans each column's
  poles into a Python list (pole_scan) and reads its separation (closest)
  and abscissa (oracle_abscissa) column by column, against the one array
  pole table of every column;
- the Barnes-line cut oracle (oracle_line_reach) probes one column's
  integrand on every integer |t| <= t_max, against the line evaluated
  outward from t = 0 on the nodes it integrates;
- the exact-part oracle (fraction_exact_part) multiplies the exact Gamma
  ratios as Fractions factor by factor, against the integer products
  reduced once per degree;
- the Gamma-block, residue, inner-coefficient and Euler-product oracles
  call log_gamma once per factor and multiply Python complex scalars per
  degree, the evaluation order that the stacked array versions must
  reproduce bit for bit;
- the residue-sum oracles evaluate every term of a class and then apply
  the stop rule, against the sums that evaluate the terms in chunks;
- the Fraction route of next-to pairs and connection coefficients
  (fraction_next_to_pairs, fraction_compatible_minus_lift,
  fraction_continuation_coefficient, fraction_coefficient_value) matches
  line classes and finds lifts in Fractions and converts a coefficient's
  constants at every evaluation, against the integer route;
- the dense continuation matrix (dense_continuation_matrix,
  dense_continuation_entries) lists every cell, zero cells included, on
  the Fraction route, against the report of the nonzero cells alone;
- the writer oracle (oracle_jsonify, oracle_emit) converts the whole report
  tree to JSON types before it encodes or prints it, against the encoder's
  hook;
- the log-Gamma oracles (oracle_log_gamma, oracle_log_sin_pi) are the plain
  kernel: masks on every call and the Lanczos sum term by term, and they
  raise PoleCollision at a pole, where the kernel returns an infinity.  Every
  oracle above takes its Gamma values from them, so the stacked versions
  are checked against the plain kernel, not against the kernel they call.

Ranks, determinants and solves come from the Fraction elimination below,
never from wallcross.lattice, whose integer kernel they check, and the
restrictions and minus lifts from the oracles above, never from restrict_u,
theta_restrict, compatible_minus_lift or the integer line helpers
(tests/test_layout.py enforces this).  The Fraction vector arithmetic is the oracles' own.  The wall-frame
oracle builds its own Fraction dual lattices, coordinates and sublattice
vectors, by fraction_solve and Fraction combinations.  What an oracle shares
with the path it checks is the choice of lattice bases, which fixes the
smallest-first search order: the Hermite bases of the extended lattice and
of the dual's generators (lattice.extended_lattice and
lattice_from_generators), the kernel basis of the constrained sublattices
(lattice.integer_kernel_basis), and the anticone coordinates of the nef test.
"""

import cmath
import functools
import itertools
import json
import math
import pathlib
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from wallcross.cli import load_config, parse_config
from wallcross.gitfan import (
    WALL_SEARCH_RADIUS,
    CoordinateChange,
    EmptyQuotient,
    NotAdjacent,
    NotCrepant,
    NotDeligneMumford,
    SectorLabel,
    WallFrame,
    anticones_next_to,
    fixed_point_labels,
    make_git,
    next_to_pairs,
    wall_crossing,
)
from wallcross.hypergeom import (
    LOG_PI,
    TWO_PI_I,
    PoleCollision,
    _log_coefficients,
    check_generic,
    make_inner_spec,
    w_constant,
)
from wallcross.ktheory import KClass
from wallcross.lattice import (
    NotAHyperplane,
    anticone_coords,
    cleared,
    extended_lattice,
    hermite_with_transform,
    integer_kernel_basis,
    intvec,
    lattice_from_generators,
    quotient_transversal,
    ratvec,
    vdot,
)
from wallcross.localization import LinearForm, sigma_restrict
from wallcross.mellinbarnes import (
    ContinuationMatrix,
    ContourSpec,
    ContourTooClose,
    IncompatibleLifts,
    _interesting_residue,
    _log_gamma_block,
    _split_xi,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# small constructions that only the tests use


def all_anticones(A):
    """Every anticone of the set, by size and then lex order."""
    for size in range(A.r, A.m + 1):
        for I in itertools.combinations(range(A.m), size):
            if A.contains(I):
                yield I


def inner_sum_coefficient(spec, k, lam):
    """Coefficient of the k-th power of the wall monomial, normalized to
    coefficient 1 at k = 0, elementwise for an integer or an integer array k,
    as inner_series computes it.  A coefficient that overflows is an inf or
    NaN."""
    scalar = np.ndim(k) == 0
    ks = np.atleast_1d(np.asarray(k, dtype=int))
    assert np.all(ks >= 0)
    (live,), sign, logs = _log_coefficients([spec], ks, [lam])
    out = np.zeros(len(ks), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        out[live] = sign * np.exp(logs)
    return complex(out[0]) if scalar else out


def on_wall(wc, v):
    return vdot(v, wc.e) == 0


def primitive(v):
    """The primitive integer vector on the ray of a nonzero integer vector."""
    g = gcd(*v)
    return tuple(x // g for x in v)


def in_plus_coordinates(sigma, change):
    """The log coefficients of a minus-side restriction rewritten in the
    plus-chart coordinates, as Fraction coefficient tuples.

    log ty_i = log y_i + c_i log y_r for i < r and log ty_r = -c log y_r.
    """
    logs = [fraction_coeffs(form) for form in sigma.log_coeffs]
    last = vscale(-change.c, logs[-1])
    for c_i, form in zip(change.c_i, logs):
        last = vadd(last, vscale(c_i, form))
    return tuple(logs[:-1]) + (last,)


def oracle_sample_lambdas(m, count, seed):
    """count seeded samples of m torus parameters, each part drawn by its
    own random.uniform call: real parts in [-0.4, 0.4], imaginary parts of
    magnitude in [0.05, 0.4] with random sign."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        lam = []
        for _i in range(m):
            re = rng.uniform(-0.4, 0.4)
            im = rng.uniform(0.05, 0.4) * (1 if rng.random() < 0.5 else -1)
            lam.append(complex(re, im))
        out.append(tuple(lam))
    return out


def oracle_genericity_gaps(wc, lams):
    """Per sample, the smallest |u_j(delta)(lam)| over the nonzero oracle
    forms of both sides: one float array of forms times the samples."""
    forms = [u_j.floats for A in (wc.A_plus, wc.A_minus) for delta in A.minimal
             for u_j in _oracle_u_forms(wc.git, delta) if not u_j.is_zero]
    forms = np.array(forms, dtype=float).reshape(len(forms), wc.git.m)
    return np.abs(forms @ np.array(lams, dtype=complex).T).min(axis=0, initial=np.inf)


def oracle_generic_lambdas(wc, count, seed, clearance=1e-3):
    """The first count of all 2 count + 4 seeded samples whose genericity
    gap exceeds the clearance, every sample drawn before any is filtered."""
    raw = oracle_sample_lambdas(wc.git.m, 2 * count + 4, seed)
    out = [lam for lam, gap in zip(raw, oracle_genericity_gaps(wc, raw)) if gap > clearance]
    if len(out) < count:
        raise PoleCollision("could not draw %d generic samples" % count)
    return out[:count]


def oracle_coefficient_value(coeff, lam):
    """A ContinuationCoefficient at the sample lam in cmath scalars, its
    constants converted once as the library converts them."""
    X = coeff.u_form(lam) / TWO_PI_I + complex(coeff.shift[0] / coeff.shift[1])
    val = cmath.exp(-1j * math.pi * coeff.w * X / coeff.l)
    if coeff.l > 1:
        val *= cmath.sin(math.pi * X) / (coeff.l * cmath.sin(math.pi * X / coeff.l))
    for u_plus, c_plus, u_minus, c_minus in coeff.ratio_terms:
        num = u_plus(lam) / TWO_PI_I + c_plus
        den = u_minus(lam) / TWO_PI_I + c_minus
        val *= cmath.sin(math.pi * num) / cmath.sin(math.pi * den)
    return val


def oracle_genericity_gap(wc, lam):
    """Smallest |u_j(delta)(lam)| over both sides, one form at a time."""
    return min(abs(form_value(u[j], lam)) for A in (wc.A_plus, wc.A_minus) for delta in A.minimal
               for u in [oracle_restrict_u(wc.git, delta)] for j in range(wc.git.m) if j not in delta)


# ---------------------------------------------------------------------------
# Fraction vectors and restricted forms: the oracles' own arithmetic


def vadd(a, b):
    return tuple(Fraction(x) + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(Fraction(x) - y for x, y in zip(a, b))


def vscale(c, a):
    return tuple(Fraction(c) * x for x in a)


def is_integral(v):
    return all(Fraction(x).denominator == 1 for x in v)


def lift_numerators(v):
    """(num, den) of a rational vector: integer numerators over the lcm of
    the denominators of its entries."""
    v = ratvec(v)
    den = lcm(*(x.denominator for x in v))
    return intvec(vscale(den, v)), den


def frac_part(q):
    """q minus its floor, as a Fraction in [0, 1)."""
    q = Fraction(q)
    return q - (q.numerator // q.denominator)


def anticone_dual(D, delta, k):
    """The vector f with D[delta[t]] . f = k_t for every t, by fraction_solve."""
    return fraction_solve([D[i] for i in delta], list(k))


def fraction_coeffs(form):
    """The coefficients of a library LinearForm as Fractions."""
    return tuple(Fraction(n, form.den) for n in form.num)


def form_value(coeffs, lam):
    """A form given by its coefficients at the torus parameters lam, in the
    order of LinearForm.__call__."""
    return sum((complex(a) * lam[i] for i, a in enumerate(coeffs) if a), 0j)


def oracle_form_text(coeffs):
    """The text of a form from its Fraction coefficients."""
    parts = []
    for i, a in enumerate(coeffs):
        if a == 0:
            continue
        name = "L%d" % (i + 1)
        if a in (1, -1):
            parts.append(("+" if a > 0 else "-") + name)
        else:
            parts.append(("+" if a > 0 else "-") + "%s*%s" % (abs(a), name))
    return "".join(parts).lstrip("+") or "0"


def oracle_theta_restrict(git, delta, p):
    """theta(p) at delta as Fraction coefficients: -sum_t c_t L_delta[t] for
    the solution c of p = sum_t c_t D[delta[t]] by fraction_solve."""
    c = fraction_solve([[git.D[i][a] for i in delta] for a in range(git.r)], list(p))
    coeffs = [Fraction(0)] * git.m
    for i, ci in zip(delta, c):
        coeffs[i] = -ci
    return tuple(coeffs)


def oracle_restrict_u(git, delta):
    """u_j(delta) = L_j + theta(D_j) for every j, as Fraction coefficients."""
    out = []
    for j in range(git.m):
        coeffs = list(oracle_theta_restrict(git, delta, git.D[j]))
        coeffs[j] += 1
        out.append(tuple(coeffs))
    return tuple(out)


def oracle_restriction_terms(git, kclass, delta, lift):
    """restriction_terms in Fractions at a rational lift: (coeff, phase,
    form coefficients), the phase the fractional part of the Fraction
    pairings rho . lift - sum_j a_j D_j . lift, the form theta(rho) - sum_j
    a_j u_j from the Fraction restrictions."""
    pairings = [vdot(row, lift) for row in git.D]
    phases = [vdot(kclass.rho, lift) - sum(a * p for a, p in zip(exps, pairings) if a)
              for exps, _c in kclass.terms]
    return tuple((c, frac_part(phase), form) for (_e, c), phase, form
                 in zip(kclass.terms, phases, _oracle_class_forms(git, kclass, delta)))


@functools.lru_cache(maxsize=None)
def _oracle_class_forms(git, kclass, delta):
    """The Fraction forms theta(rho) - sum_j a_j u_j of the class's terms."""
    u = oracle_restrict_u(git, delta)
    base = oracle_theta_restrict(git, delta, kclass.rho) if any(kclass.rho) else (Fraction(0),) * git.m
    forms = []
    for exps, _c in kclass.terms:
        form = base
        for j, a in enumerate(exps):
            if a:
                form = vsub(form, vscale(a, u[j]))
        forms.append(form)
    return tuple(forms)


# ---------------------------------------------------------------------------
# Fraction elimination: the reference of the library's integer kernel for
# ranks, determinants, solves and kernels


def _rref_with_free(rows, ncols):
    mat = [list(map(Fraction, r)) for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pv = mat[rank][col]
        mat[rank] = [x / pv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        pivots.append(col)
        rank += 1
    return mat, pivots


def fraction_rank(rows):
    return len(_rref_with_free(rows, len(rows[0]))[1]) if rows else 0


def fraction_det(rows):
    """The determinant as the product of the elimination pivots."""
    mat = [list(map(Fraction, r)) for r in rows]
    n = len(mat)
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if mat[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        for i in range(col + 1, n):
            f = mat[i][col] / mat[col][col]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[col])]
    return det


def fraction_solve(rows, rhs):
    """One exact solution of M x = rhs for M given by rows, its free
    coordinates zero, or None when the system is inconsistent."""
    ncol = len(rows[0])
    red, pivots = _rref_with_free([list(row) + [b] for row, b in zip(rows, rhs)], ncol + 1)
    if ncol in pivots:
        return None
    sol = [Fraction(0)] * ncol
    for i, col in enumerate(pivots):
        sol[col] = red[i][ncol]
    return tuple(sol)


def fraction_kernel(rows, width):
    """A basis of {x : row . x = 0 for every row}, one vector per free column."""
    red, pivots = _rref_with_free(rows, width)
    basis = []
    for fc in (c for c in range(width) if c not in pivots):
        vec = [Fraction(0)] * width
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -red[i][fc]
        basis.append(tuple(vec))
    return basis


def fraction_wall_normal(wall_chars, positive_side):
    """The primitive normal of the hyperplane spanned by the wall characters,
    pairing positively with ``positive_side``; NotAHyperplane otherwise."""
    kern = fraction_kernel(wall_chars, len(positive_side))
    if len(kern) != 1 or vdot(positive_side, kern[0]) == 0:
        raise NotAHyperplane("no wall normal off the positive side")
    s = math.lcm(*(x.denominator for x in kern[0]))
    g = gcd(*(int(x * s) for x in kern[0]))
    e = tuple(int(x * s) // g for x in kern[0])
    return e if vdot(positive_side, e) > 0 else tuple(-x for x in e)


# ---------------------------------------------------------------------------
# the cone oracle and the random crossings


def in_open_cone(D, indices, omega):
    """Exact strict feasibility of omega = sum_{i in indices} a_i D_i, a_i > 0.

    Solves the equality system for pivot variables, then eliminates the free
    variables by Fourier-Motzkin with strict inequalities.
    """
    indices = list(indices)
    omega = [Fraction(x) for x in omega]
    if not indices:
        return all(x == 0 for x in omega)
    r = len(omega)
    k = len(indices)
    # augmented system: rows over coordinates, unknowns a_1..a_k
    aug = [[Fraction(D[i][c]) for i in indices] + [omega[c]] for c in range(r)]
    red, pivots = _rref_with_free(aug, k + 1)
    if k in pivots:
        return False  # inconsistent
    free = [c for c in range(k) if c not in pivots]
    # each variable as an affine function of the free variables:
    # expr = (const, {free_col: coeff})
    exprs = {}
    for c in free:
        exprs[c] = (Fraction(0), {c: Fraction(1)})
    for row_idx, c in enumerate(pivots):
        const = red[row_idx][k]
        coeffs = {fc: -red[row_idx][fc] for fc in free if red[row_idx][fc] != 0}
        exprs[c] = (const, coeffs)
    # strict constraints expr > 0 for every variable
    constraints = [exprs[c] for c in range(k)]
    for var in free:
        lowers, uppers, rest = [], [], []
        for const, coeffs in constraints:
            cv = coeffs.get(var, Fraction(0))
            reduced = (const, {c: v for c, v in coeffs.items() if c != var})
            if cv > 0:
                lowers.append((cv, reduced))
            elif cv < 0:
                uppers.append((-cv, reduced))
            else:
                rest.append(reduced)
        new = list(rest)
        for cl, (lconst, lcoeffs) in lowers:
            for cu, (uconst, ucoeffs) in uppers:
                # cl*var + L > 0 and -cu*var + U > 0  =>  cu*L + cl*U > 0
                const = cu * lconst + cl * uconst
                coeffs = dict()
                for c, v in lcoeffs.items():
                    coeffs[c] = coeffs.get(c, Fraction(0)) + cu * v
                for c, v in ucoeffs.items():
                    coeffs[c] = coeffs.get(c, Fraction(0)) + cl * v
                coeffs = {c: v for c, v in coeffs.items() if v != 0}
                new.append((const, coeffs))
        constraints = new
    return all(const > 0 for const, coeffs in constraints if not coeffs)


def oracle_anticones(git, omega):
    """All anticones by the independent strict-cone oracle."""
    out = []
    for size in range(0, git.m + 1):
        for I in itertools.combinations(range(git.m), size):
            if in_open_cone(git.D, I, omega):
                out.append(I)
    return out


def _dual_unit(e):
    """Small integer vector pairing to 1 with a primitive integer vector."""
    n = len(e)
    for radius in range(1, 6):
        for g in itertools.product(range(-radius, radius + 1), repeat=n):
            if sum(a * b for a, b in zip(g, e)) == 1:
                return tuple(g)
    raise AssertionError("no small dual vector found for %r" % (e,))


@functools.lru_cache(maxsize=None)
def committed_crossings():
    """The crossings of configs/ and bench/configs/, in path order."""
    paths = sorted((ROOT / "configs").glob("*.json")) + sorted((ROOT / "bench" / "configs").glob("*.json"))
    cfgs = [load_config(str(path)) for path in paths]
    return tuple(wall_crossing(cfg["git"], cfg["omega_plus"], cfg["omega_minus"]) for cfg in cfgs)


# draw 7 of random_crepant_crossing(random.Random(1030), max_r=4, max_m=8):
# the integer tests of its wall search would overflow int64, so they run on
# Python ints; 256 fixed points a side, on 8 plus and 6 minus anticones
RANK_4_CONFIG = {
    "schema": "wallcross-config/1",
    "git": {"r": 4, "m": 7, "D": [[-2, -3, 0, 1], [4, 1, 0, 0], [0, 2, 1, 0], [1, 2, 1, 1],
                                  [-1, 0, 3, 0], [-1, 0, -1, 1], [4, 4, 5, -3]]},
    "omega_plus": [[35, 4], [35, 4], [19, 4], [1, 4]],
    "omega_minus": [[37, 4], [37, 4], [21, 4], [-1, 4]],
}


@functools.lru_cache(maxsize=None)
def rank_4_crossing():
    cfg = parse_config(RANK_4_CONFIG)
    return wall_crossing(cfg["git"], cfg["omega_plus"], cfg["omega_minus"])


def random_crepant_crossing(rng, max_r=3, max_m=7, max_tries=400):
    """A random valid crepant adjacent wall-crossing, by rejection sampling.

    The wall normal is drawn first and the characters are corrected to have
    prescribed pairings summing to zero, which enforces crepancy by
    construction; validity and adjacency are then checked by the production
    code and failures are resampled.
    """
    for _ in range(max_tries):
        r = rng.randint(1, max_r)
        m = rng.randint(max(r + 2, 3), max_m)
        e_raw = tuple(rng.randint(-2, 2) for _ in range(r))
        if all(x == 0 for x in e_raw):
            continue
        e = primitive(e_raw)
        g = _dual_unit(e)
        values = [rng.randint(-2, 2) for _ in range(m - 1)]
        values.append(-sum(values))
        if abs(values[-1]) > 3:
            continue
        if not (any(v > 0 for v in values) and any(v < 0 for v in values)):
            continue
        D = []
        for i in range(m):
            row = [rng.randint(-2, 2) for _ in range(r)]
            pairing = sum(a * b for a, b in zip(row, e))
            row = [a + (values[i] - pairing) * b for a, b in zip(row, g)]
            D.append(tuple(row))
        try:
            git = make_git(D)
        except ValueError:
            continue
        wall = [i for i in range(m) if values[i] == 0]
        omega0 = tuple(
            sum(rng.randint(1, 3) * Fraction(git.D[i][c]) for i in wall) if wall else Fraction(0)
            for c in range(r)
        )
        for eps_den in (4, 8, 16):
            eps = Fraction(1, eps_den)
            omega_plus = tuple(o + eps * gg for o, gg in zip(omega0, g))
            omega_minus = tuple(o - eps * gg for o, gg in zip(omega0, g))
            try:
                return wall_crossing(git, omega_plus, omega_minus)
            except (NotAdjacent, NotCrepant, EmptyQuotient, NotDeligneMumford, ValueError):
                continue
    raise RuntimeError("random generator failed to produce a crossing")


def oracle_box(git, A):
    """Brute-force box classes: every candidate denominator is bounded by the
    anticone determinants, so scanning one common refinement is complete."""
    N = 1
    for delta in A.minimal:
        d = abs(int(fraction_det([git.D[i] for i in delta])))
        N = N * d // gcd(N, d)
    out = []
    for coords in itertools.product(range(N), repeat=git.r):
        f = tuple(Fraction(c, N) for c in coords)
        I_f = tuple(i for i in range(git.m) if (sum(Fraction(git.D[i][k]) * f[k] for k in range(git.r))).denominator == 1)
        if A.contains(I_f):
            out.append(f)
    return sorted(out)


# ---------------------------------------------------------------------------
# the radius-24 wall-frame search, kept as the oracle of gitfan.wall_frame:
# Fraction arithmetic throughout, every candidate by sup-norm radius and lex
# order, raising ValueError when the radius is exhausted


def fraction_dual(rows):
    """The dual {v : v.g in Z for every basis row g} of a full-rank lattice:
    its i-th generator pairs to delta_ij with the rows, a column of the
    inverse basis by fraction_solve; the generators in Hermite form."""
    n = len(rows)
    cols = [fraction_solve(rows, [int(i == j) for j in range(n)]) for i in range(n)]
    return lattice_from_generators(cols, n)


def oracle_coords(basis, v):
    """The coordinates of v over independent rows, by fraction_solve; None
    when v is not in the lattice they span."""
    c = fraction_solve([list(col) for col in zip(*basis)], list(v))
    return c if c is not None and is_integral(c) else None


def _oracle_combination(coeffs, rows):
    """sum_t coeffs[t] rows[t] in Fractions."""
    v = (Fraction(0),) * len(rows[0])
    for coef, row in zip(coeffs, rows):
        v = vadd(v, vscale(coef, row))
    return v


def _oracle_sublattice(dual, conditions):
    """Basis (as ambient vectors) of the dual-lattice points annihilated by
    the given rational functionals."""
    cond_rows = [cleared([vdot(row, cond) for row in dual])[1] for cond in conditions]
    return [_oracle_combination(k, dual) for k in integer_kernel_basis(cond_rows, len(dual))]


def _oracle_int_det(mat):
    d = fraction_det(mat)
    assert d.denominator == 1
    return int(d)


def _oracle_saturated(coord_rows):
    """Whether integer vectors extend to a lattice basis: maximal minors
    have gcd 1."""
    k = len(coord_rows)
    n = len(coord_rows[0])
    g = 0
    for cols in itertools.combinations(range(n), k):
        sub = [[row[c] for c in cols] for row in coord_rows]
        g = gcd(g, abs(_oracle_int_det(sub)))
        if g == 1:
            return True
    return g == 1


def _sup_shell(radius, n):
    """Integer vectors of length n and sup norm exactly ``radius``, in lex
    order."""
    for k in itertools.product(range(-radius, radius + 1), repeat=n):
        if max((abs(x) for x in k), default=0) == radius:
            yield k


def _in_nef_cone(git, A, v):
    return all(c >= 0 for delta in A.minimal for c in anticone_coords(git.D, delta, v))


def _search_basis(generators, accept, need, full_det_one):
    """Backtracking search for `need` vectors over the generator lattice.

    Candidates are integer combinations enumerated by sup-norm radius and
    lex order; each prefix must be extendable to a lattice basis (maximal
    minors coprime), and the full selection must be unimodular over the
    generators when `full_det_one` is set.  Deterministic.
    """
    pool = []

    def extend(chosen_k, chosen_v):
        if len(chosen_v) == need:
            if full_det_one and abs(_oracle_int_det(chosen_k)) != 1:
                return None
            return list(chosen_v)
        for k, v in pool:
            rows = list(chosen_k) + [k]
            if fraction_rank(rows) != len(rows) or not _oracle_saturated(rows):
                continue
            result = extend(rows, list(chosen_v) + [v])
            if result is not None:
                return result
        return None

    for radius in range(1, WALL_SEARCH_RADIUS + 1):
        for k in _sup_shell(radius, len(generators)):
            v = _oracle_combination(k, generators)
            if accept(v):
                pool.append((k, v))
        result = extend([], [])
        if result is not None:
            return result
    return None


def xi_fractions(xi, S):
    """The splitting vectors xi_j, j in S, of a side's (col, det) pairs, as
    Fraction vectors col / det."""
    return [tuple(Fraction(x, xi[j][1]) for x in xi[j][0]) for j in S]


def oracle_wall_frame(wc):
    """The adapted integral bases and the chart transition by brute-force
    search, or ValueError when a search exhausts its radius.

    Wall vectors come first and are shared by both sides: the extended
    characters common to both, then integral points of the shared wall
    sublattice lying on the closure of the common facet, chosen smallest
    first with backtracking.  The final off-wall vector on each side is the
    extended character when one exists, else the smallest nef integral
    point completing a basis.
    """
    git = wc.git
    dual_plus = fraction_dual(extended_lattice(git, wc.omega_plus))
    dual_minus = fraction_dual(extended_lattice(git, wc.omega_minus))

    seed = [ratvec(git.D[j]) for j in wc.S_zero]
    ell = git.r - 1 - len(wc.S_zero)

    # the shared facet's sublattice: on the wall, annihilated by every
    # splitting vector of both sides
    conditions = [ratvec(wc.e)] + xi_fractions(wc.xi_plus, wc.S_plus) + xi_fractions(wc.xi_minus, wc.S_minus)
    facet_gens = _oracle_sublattice(dual_plus, conditions)
    assert len(facet_gens) == ell, "facet sublattice has unexpected rank"

    def wall_accept(v):
        if all(x == 0 for x in v):
            return False
        if oracle_coords(dual_minus, v) is None or oracle_coords(dual_plus, v) is None:
            return False
        return _in_nef_cone(git, wc.A_plus, v) and _in_nef_cone(git, wc.A_minus, v)

    if ell:
        found = _search_basis(facet_gens, wall_accept, ell, full_det_one=True)
        if found is None:
            raise ValueError("no integral wall basis found within search radius")
        wall = seed + found
    else:
        wall = list(seed)

    if wall:
        for dual in (dual_plus, dual_minus):
            coords = [oracle_coords(dual, w) for w in wall]
            assert None not in coords
            assert fraction_rank(coords) == len(wall) and _oracle_saturated(coords)

    def last_vector(side):
        A = wc.A_plus if side == "plus" else wc.A_minus
        dual = dual_plus if side == "plus" else dual_minus
        S = wc.S_plus if side == "plus" else wc.S_minus
        xi = wc.xi_plus if side == "plus" else wc.xi_minus
        extra = sorted(set(S) - set(wc.S_zero))
        if extra:
            v = ratvec(git.D[extra[0]])
            coords = [oracle_coords(dual, w) for w in wall + [v]]
            assert None not in coords and abs(_oracle_int_det(coords)) == 1, (
                "extended character does not complete a basis")
            return v
        # the ambient-side sublattice: annihilated by the side's splitting
        # vectors only; the off-wall completion lives here
        side_gens = _oracle_sublattice(dual, xi_fractions(xi, S))
        wall_coords = [oracle_coords(dual, w) for w in wall]
        for radius in range(1, WALL_SEARCH_RADIUS + 1):
            for k in _sup_shell(radius, len(side_gens)):
                v = _oracle_combination(k, side_gens)
                if on_wall(wc, v):
                    continue
                if not _in_nef_cone(git, A, v):
                    continue
                coords = wall_coords + [oracle_coords(dual, v)]
                if abs(_oracle_int_det(coords)) == 1:
                    return v
        raise ValueError("no off-wall nef basis vector found within search radius")

    last_plus = last_vector("plus")
    last_minus = last_vector("minus")
    sfp_plus = tuple(wall) + (last_plus,)
    sfp_minus = tuple(wall) + (last_minus,)

    # last_plus = sum_i c_i * wall_i - c * last_minus
    rows = [[w[k] for w in list(wall) + [last_minus]] for k in range(git.r)]
    coeffs = fraction_solve(rows, list(last_plus))
    c = -coeffs[-1]
    assert c > 0, "transition exponent must be positive"
    c_i = tuple(coeffs[:-1])
    B = c.denominator
    for x in c_i:
        B = B * x.denominator // gcd(B, x.denominator)
    change = CoordinateChange(c=c, c_i=c_i, A=int(c * B), B=B)
    return WallFrame(sfp_plus=sfp_plus, sfp_minus=sfp_minus, change=change)


def assert_frame_properties(wc, frame):
    """The defining properties of a wall frame, checked in Fraction
    arithmetic: the frame vectors are int tuples; the shared wall vectors lie
    on the wall, in both duals and in both nef cones; each side's basis has
    |det| = 1 over its dual; the last vectors are nef and off the wall on
    their own side; c > 0."""
    sides = (
        (1, frame.sfp_plus, wc.A_plus, fraction_dual(extended_lattice(wc.git, wc.omega_plus))),
        (-1, frame.sfp_minus, wc.A_minus, fraction_dual(extended_lattice(wc.git, wc.omega_minus))),
    )
    assert all(type(v) is tuple and all(type(x) is int for x in v)
               for v in frame.sfp_plus + frame.sfp_minus)
    assert frame.sfp_plus[:-1] == frame.sfp_minus[:-1]
    for w in frame.sfp_plus[:-1]:
        assert on_wall(wc, w)
        for _sign, _sfp, A, dual in sides:
            assert oracle_coords(dual, w) is not None and _in_nef_cone(wc.git, A, w)
    for sign, sfp, A, dual in sides:
        coords = [oracle_coords(dual, v) for v in sfp]
        assert None not in coords and abs(_oracle_int_det(coords)) == 1
        assert sign * vdot(sfp[-1], wc.e) > 0 and _in_nef_cone(wc.git, A, sfp[-1])
    assert frame.change.c > 0


def assert_sigma_transition(wc, frame):
    """At every next-to pair of minimal anticones, the plus restriction of
    the shifted pullback class minus the minus restriction rewritten in plus
    coordinates is the normal weight u_{j-} scaled by D_k.e / D_{j-}.e, one
    frame vector k at a time."""
    seen = set()
    for lp, lm in next_to_pairs(wc):
        if (lp.delta, lm.delta) in seen:
            continue
        seen.add((lp.delta, lm.delta))
        j_minus = next(i for i in lm.delta if i not in lp.delta)
        u = oracle_restrict_u(wc.git, lp.delta)[j_minus]
        sig_p = sigma_restrict(wc, lp.delta, "plus")
        sig_m = in_plus_coordinates(sigma_restrict(wc, lm.delta, "minus"), frame.change)
        for k in range(wc.git.r):
            ratio = Fraction(int(vdot(frame.sfp_plus[k], wc.e)), wc.pair_e(j_minus))
            assert vsub(fraction_coeffs(sig_p.log_coeffs[k]), sig_m[k]) == vscale(ratio, u)


# ---------------------------------------------------------------------------
# the numeric continuation oracle of the closed-form connection coefficients


def _unnormalized_minus_series(wc, label_minus, d_minus, x, lam):
    """Sum over k <= 200 of x^{-k} / prod Gamma(1 + u_j(d-)/2pi i + D_j d- - k D_j e)."""
    git = wc.git
    u = oracle_restrict_u(git, label_minus.delta)
    k = np.arange(201)
    log_terms = np.zeros(len(k), dtype=complex)
    live = np.ones(len(k), dtype=bool)
    for j in range(git.m):
        gamma_j = form_value(u[j], lam) / TWO_PI_I
        d_j = vdot(git.D[j], d_minus)
        if gamma_j == 0 and d_j.denominator == 1:
            # an exact reciprocal Gamma at a nonpositive integer kills the term
            a = int(d_j) + 1 - k * wc.pair_e(j)
            live &= a > 0
            log_terms -= oracle_log_gamma(np.where(a > 0, a, 1).astype(float))
        else:
            log_terms -= oracle_log_gamma(1 + gamma_j + complex(d_j) - k * wc.pair_e(j))
    terms = np.exp(log_terms[live]) * (1.0 / complex(x)) ** k[live]
    return oracle_sum_until_small(terms)


def continuation_numeric(wc, pair, x, lam):
    """Connection coefficient extracted from grouped left residues.

    This is fully independent of the closed form: it divides one residue
    class of the continued integral by the minus-side series it multiplies.
    """
    label_plus, label_minus = pair
    spec = make_inner_spec(wc, label_plus)
    j_minus = next(i for i in label_minus.delta if i not in label_plus.delta)
    l = -wc.pair_e(j_minus)
    w = w_constant(wc)
    betas = spec.betas(lam)

    # the residue class of this partner: l' = D_{j-} . d_minus mod pairing
    alpha = oracle_line_membership(vsub(label_minus.f, label_plus.f), wc.e)
    lift_minus = vadd(label_plus.f, vscale(alpha, wc.e))
    # d_minus = d_plus + ((D_{j-}.d_plus - l') / l) e with [d_minus] = f_minus
    d_plus_pair = Fraction(spec.d[j_minus], spec.det)
    residue_class = None
    for cand in range(l):
        q = (d_plus_pair - cand) / l
        d_minus = tuple(Fraction(a, spec.det) + q * b for a, b in zip(spec.d_plus, ratvec(wc.e)))
        if is_integral(vsub(d_minus, lift_minus)):
            residue_class = cand
            d_minus_vec = d_minus
            break
    if residue_class is None:
        raise ValueError("no residue class matches the minus sector")

    group = left_residue_terms(spec, x, lam, j_minus, residue_class)

    prefactor = 1.0 + 0j
    for j in range(wc.git.m):
        if spec.e[j] < 0:
            prefactor *= cmath.sin(math.pi * (-betas[j] - complex(spec.d[j] / spec.det))) / math.pi

    xi, log_xi = _split_xi(spec, x)
    log_ye = log_xi + 1j * math.pi * w
    p0 = (betas[j_minus] + complex(d_plus_pair) - residue_class) / l
    power = cmath.exp(-p0 * log_ye)

    series = _unnormalized_minus_series(wc, label_minus, d_minus_vec, x, lam)
    return prefactor * group * power / series


# ---------------------------------------------------------------------------
# the Fraction paths of the exact layer, kept as oracles of its integer
# kernel: rational elimination for every cone test and wall normal, Fraction
# pairings for the box classes, a candidate loop for line multiples and a
# double loop for next-to pairs


def oracle_cone_coefficients(git, indices, v):
    """Exact coefficients of v over the selected characters, or None.

    Returns one solution c of v = sum_t c_t D[indices[t]], with the free
    coordinates of a dependent selection set to zero, or None when v is not
    in their span.  Callers test the signs: a dependent selection's zero
    coordinates fail the strict test, and for the closed test its solution
    is that of an independent subset, which is enumerated anyway.
    """
    v = ratvec(v)
    if not indices:
        return () if all(x == 0 for x in v) else None
    rows = [[Fraction(git.D[i][k]) for i in indices] for k in range(git.r)]
    return fraction_solve(rows, list(v))


def oracle_minimal_anticones(git, omega):
    """The minimal anticones by strict cone tests over index sets of size at
    most r, raising the production errors with the same messages."""
    minimal = []
    for size in range(0, git.r + 1):
        for I in itertools.combinations(range(git.m), size):
            coeffs = oracle_cone_coefficients(git, I, omega)
            if coeffs is not None and all(c > 0 for c in coeffs):
                if size < git.r:
                    raise NotDeligneMumford("Assumption(2) spanning fails for I=%s" % (set(I) or "{}",))
                minimal.append(tuple(I))
    if not minimal:
        raise EmptyQuotient("Assumption(1) fails: {0..m-1} is not an anticone")
    return tuple(sorted(minimal))


def oracle_wall_hyperplanes(git):
    """Primitive normals, first nonzero entry positive, of the hyperplanes
    spanned by r-1 characters, each with its first spanning index set."""
    normals = {}
    if git.r == 1:
        return {(1,): ()}
    for J in itertools.combinations(range(git.m), git.r - 1):
        rows = [git.D[j] for j in J]
        if fraction_rank(rows) != git.r - 1:
            continue
        off = next(git.D[i] for i in range(git.m) if fraction_rank(rows + [git.D[i]]) == git.r)
        try:
            n = fraction_wall_normal(rows, off)
        except NotAHyperplane:
            continue
        if next(x for x in n if x) < 0:
            n = tuple(-x for x in n)
        normals.setdefault(n, J)
    return normals


def oracle_crossing_normal(git, omega_plus, omega_minus):
    """The normal of the one wall cone crossed by the segment between the
    stability conditions, by Fraction crossing points and closed cone tests;
    None unless exactly one is crossed."""
    omega_plus, omega_minus = ratvec(omega_plus), ratvec(omega_minus)
    crossed = []
    for n in oracle_wall_hyperplanes(git):
        a, b = vdot(omega_plus, n), vdot(omega_minus, n)
        if a * b >= 0:
            continue
        t = a / (a - b)
        point = tuple((1 - t) * x + t * y for x, y in zip(omega_plus, omega_minus))
        wall = [i for i in range(git.m) if vdot(git.D[i], n) == 0]
        if any(c is not None and all(x >= 0 for x in c)
               for size in range(git.r) for K in itertools.combinations(wall, size)
               for c in [oracle_cone_coefficients(git, K, point)]):
            crossed.append(n)
    return crossed[0] if len(crossed) == 1 else None


def oracle_box_classes(git, A):
    """Box classes, zero sector first and then by f, from Fraction pairings
    of the coset representatives over every minimal anticone, as
    SectorLabels: f as numerators over its order, the pairings D_i . f as
    numerators over that order."""
    seen = {}
    for delta in A.minimal:
        cols = [tuple(git.D[i][a] for i in delta) for a in range(git.r)]
        for k in quotient_transversal(cols):
            f = tuple(frac_part(x) for x in anticone_dual(git.D, delta, k))
            pairings = [vdot(git.D[i], f) for i in range(git.m)]
            I_f = tuple(i for i, p in enumerate(pairings) if p.denominator == 1)
            den = lcm(*(x.denominator for x in f))
            seen.setdefault(f, SectorLabel(num=tuple(intvec(vscale(den, f))), den=den, I_f=I_f,
                                           pairings=tuple(intvec(vscale(den, pairings)))))
    return tuple(seen[f] for f in sorted(seen, key=lambda f: (any(f), f)))


def oracle_rho_lifts(git, delta):
    """The canonical character lifts in Fractions: the coordinates of each
    coset representative over the anticone basis, reduced into [0, 1) and
    summed back over the basis."""
    lifts = []
    for k in quotient_transversal([git.D[i] for i in delta]):
        t = [frac_part(x) for x in anticone_coords(git.D, delta, k)]
        lift = [Fraction(0)] * git.r
        for coef, i in zip(t, delta):
            for a in range(git.r):
                lift[a] += coef * git.D[i][a]
        lifts.append(intvec(lift))
    return lifts


def oracle_line_membership(v, e):
    """The alpha in [0,1) with v - alpha*e integral, or None, by trying the
    |e_i| candidates of a nonzero coordinate i of the primitive e."""
    v, e = ratvec(v), intvec(e)
    i = next(k for k, x in enumerate(e) if x != 0)
    for k in range(abs(e[i])):
        alpha = frac_part((v[i] - k) / Fraction(e[i]))
        if is_integral(vsub(v, vscale(alpha, e))):
            return alpha
    return None


def oracle_next_to_pairs(wc):
    """Next-to pairs by the double loop over plus and minus labels."""
    labels_minus = fixed_point_labels(wc.git, wc.A_minus)
    out = []
    for lp in fixed_point_labels(wc.git, wc.A_plus):
        if lp.delta in wc.A_minus.minimal:
            continue
        for lm in labels_minus:
            if lm.delta in wc.A_plus.minimal or not anticones_next_to(wc, lp.delta, lm.delta):
                continue
            if oracle_line_membership(vsub(lm.f, lp.f), wc.e) is not None:
                out.append((lp, lm))
    return out


# ---------------------------------------------------------------------------
# the oracles' own K-class algebra: the library's KClass is L(rho) times an
# integer Laurent polynomial in the S_j, a shape closed under products and
# duals; the pull-push oracle adds the root generator t as one more exponent
# and averages it away


def _laurent_product(a, b):
    """Product of two {exponent tuple: coefficient} Laurent polynomials."""
    acc = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            acc[key] = acc.get(key, 0) + ca * cb
    return acc


def kclass(rho, poly):
    """L(rho) times the Laurent polynomial {S exponents: coefficient}."""
    return KClass(tuple(rho), tuple(sorted((s, c) for s, c in poly.items() if c)))


def kc_zero(git):
    return kclass((0,) * git.r, {})


def kc_line(git, p):
    return kclass(p, {(0,) * git.m: 1})


def kc_one(git):
    return kc_line(git, (0,) * git.r)


def kc_s(git, j):
    return kclass((0,) * git.r, {tuple(int(i == j) for i in range(git.m)): 1})


def kc_mul(*factors):
    rho, poly = factors[0].rho, dict(factors[0].terms)
    for f in factors[1:]:
        rho = tuple(x + y for x, y in zip(rho, f.rho))
        poly = _laurent_product(poly, dict(f.terms))
    return kclass(rho, poly)


def kc_dual(a):
    return kclass([-x for x in a.rho], {tuple(-x for x in s): c for s, c in a.terms})


def oracle_point_class(git, delta, rho_hat):
    """L(rho_hat) times the product of (1 - S_i) over i not in delta, as a
    product of K-classes."""
    factors = [kclass((0,) * git.r, {(0,) * git.m: 1, tuple(int(i == j) for i in range(git.m)): -1})
               for j in range(git.m) if j not in delta]
    return kc_mul(kc_line(git, intvec(rho_hat)), *factors)


def oracle_fm_transform(wc, delta_minus, rho_hat):
    """The pull-push image as a product of Laurent polynomials in the S_j and
    the root generator t, root averaged: only the powers of t divisible by l
    survive, as powers of the inverse of S_{j-}."""
    git = wc.git
    if delta_minus in wc.A_plus.minimal:
        return oracle_point_class(git, delta_minus, rho_hat)
    j_minus = next(i for i in delta_minus if wc.pair_e(i) < 0)
    l = -wc.pair_e(j_minus)

    def mono(power, j=None):
        """t^power, times S_j if j is given: the S exponents, then t's."""
        return tuple(int(i == j) for i in range(git.m)) + (power,)

    poly = _laurent_product({mono(-i): 1 for i in range(l)}, {mono(int(vdot(rho_hat, wc.e))): 1})
    for j in range(git.m):
        if j not in delta_minus:
            poly = _laurent_product(poly, {mono(0): 1, mono(-max(wc.pair_e(j), 0), j): -1})
    acc = {}
    for exps, c in poly.items():
        n = exps[-1]
        if n % l == 0:
            s = exps[:j_minus] + (-(n // l),) + exps[j_minus + 1:-1]
            acc[s] = acc.get(s, 0) + c
    return kclass(intvec(rho_hat), acc)


def oracle_describe(kc):
    """A KClass's text, every exponent of every term looked at in turn."""
    if not kc.terms:
        return "0"
    line = "*L(%s)" % ",".join(str(x) for x in kc.rho) if any(kc.rho) else ""
    out = ""
    for exps, c in kc.terms:
        body = "*".join("S%d" % (j + 1) + ("" if a == 1 else "^%d" % a) for j, a in enumerate(exps) if a)
        body = (body + line).lstrip("*") or "1"
        out += ("+" if c > 0 else "-") + ("" if abs(c) == 1 else "%d*" % abs(c)) + body
    return out[1:] if out[0] == "+" else out


def reference_gram(git, A, restrict, lams):
    """localization_gram's sum as it was, one fixed point at a time: each
    point's outer product of the duals and the classes that
    ``restrict(delta, num, den)`` gives added in turn, its normal factors
    from the forms of oracle_restrict_u at the samples ``lams``.  Returns
    the Gram array and, per entry, the sum of its terms' absolute values,
    which bounds the sum's rounding (Higham, Accuracy and Stability of
    Numerical Algorithms, 4.2)."""
    gram = sizes = 0.0
    for label in fixed_point_labels(git, A):
        sec = label.sector
        u = _oracle_u_forms(git, label.delta)
        # forms times samples by broadcasting: a complex BLAS product slows
        # numpy's complex exp for the rest of the process
        factors = np.prod([1 - cmath.exp(-TWO_PI_I * sec.phase(j))
                           * np.exp(-(np.array(u[j].floats)[:, None] * lams).sum(axis=0))
                           for j in range(git.m) if j not in label.delta], axis=0)
        right, dual, _ = restrict(label.delta, sec.num, sec.den)
        left = dual / (u[0].den * factors)
        gram = gram + left[:, None] * right[None]
        sizes = sizes + np.abs(left)[:, None] * np.abs(right)[None]
    return gram, sizes


# ---------------------------------------------------------------------------
# the basis restricted one fixed point at a time, every row rebuilt per point


def _oracle_exps(rows, den, form_den, lams):
    """exp(2 pi i n / den) exp(form(lam)) for integer rows (n, form
    numerators over form_den), n reduced mod den first, by einsum."""
    turns = np.array([n % den for n, _ in rows], dtype=float) / den
    forms = np.array([form for _, form in rows], dtype=float).reshape(len(rows), lams.shape[0]) / form_den
    return np.exp(TWO_PI_I * turns)[:, None] * np.exp(np.einsum("ij,js->is", forms, lams))


@functools.lru_cache(maxsize=None)
def _oracle_theta_numerators(git, delta, rhos):
    """oracle_theta_restrict of each rho as integer numerators over det."""
    det = _oracle_u_forms(git, delta)[0].den
    return tuple(intvec([c * det for c in oracle_theta_restrict(git, delta, rho)]) for rho in rhos)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def oracle_restricted_basis(wc, basis, delta, num, den, lams, images=False):
    """The (len(basis), S) restrictions of the minus basis classes, or with
    ``images`` of their images, at the fixed point (delta, num / den), built
    as before plans: every row of the point as Python lists, one einsum and
    exp per point, S_j|_p = exp(-2 pi i D_j . num / den) exp(-u_j(lam)), each
    class L(rho)|_p times its binomials 1 - S_j|_p, an image across the wall
    the mean over the l-th roots of its product, its moving factors applied
    cyclically.  The forms come from _oracle_u_forms."""
    git = wc.git
    u = _oracle_u_forms(git, delta)
    pair = [_dot(row, num) for row in git.D]
    rhos = tuple(rho for _, rho in basis)
    lines = list(zip((_dot(rho, num) for rho in rhos), _oracle_theta_numerators(git, delta, rhos)))
    values = _oracle_exps([(-p, [-x for x in form.num]) for p, form in zip(pair, u)] + lines, den, u[0].den, lams)
    s, out = values[:git.m], values[git.m:]
    for delta_b, group in itertools.groupby(range(len(basis)), key=lambda b: basis[b][0]):
        members = list(group)
        j_minus = next(i for i in delta_b if wc.pair_e(i) < 0)
        if not (images and delta_b not in wc.A_plus.minimal and j_minus not in delta):
            out[members] *= (1 - s[[j for j in range(git.m) if j not in delta_b]]).prod(axis=0)
            continue
        l, top, a = -wc.pair_e(j_minus), u[j_minus].num, pair[j_minus]
        ks = [max(p, 0) for p in wc.pairings]
        exact = np.ones(l, dtype=int)
        for k in (ks[j] for j in delta if j not in delta_b):
            exact = np.concatenate([exact, [0] * k]) - np.concatenate([[0] * k, exact])
        terms = [d for d in range(len(exact)) if exact[d]]
        moving = [j for j in range(git.m) if j not in delta_b and j not in delta]
        n0 = [_dot(rhos[b], wc.e) for b in members]
        rows = [(l * phase + (n - d) * a, [l * x + (n - d) * y for x, y in zip(theta, top)])
                for (phase, theta), n in zip((lines[b] for b in members), n0) for d in terms]
        rows += [(-ks[j] * a - l * pair[j], [-ks[j] * y - l * z for y, z in zip(top, u[j].num)]) for j in moving]
        root = _oracle_exps(rows, den * l, u[0].den * l, lams)
        split = len(members) * len(terms)
        classes = np.zeros((len(members), l, lams.shape[1]), dtype=complex)
        for t, d in enumerate(terms):
            classes[:, d % l] += exact[d] * root[t:split:len(terms)]
        for j, x in zip(moving, root[split:]):
            classes = classes - classes[:, (np.arange(l) - ks[j]) % l] * x
        out[members] = classes[np.arange(len(members)), np.array(n0) % l]
    return out


def oracle_normal_factors(git, delta, sec, lams):
    """1 - S_j|_p over the normal directions j of the fixed point, by their
    own exponentials."""
    u = _oracle_u_forms(git, delta)
    normal = [j for j in range(git.m) if j not in delta]
    return 1 - _oracle_exps([(-sec.pairings[j], [-x for x in u[j].num]) for j in normal], sec.den, u[0].den, lams)


def oracle_gram(wc, A, basis, lams, images=False):
    """localization_gram before plans, on oracle_restricted_basis: per point
    the classes at (num, lams), again at (-num, -lams) for the duals, the
    normal factors by oracle_normal_factors, stacked as (S, B, P) and (S, P,
    B) real arrays and summed by four real products per sample."""
    git, lefts, rights = wc.git, [], []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for label in fixed_point_labels(git, A):
            delta, sec = label.delta, label.sector
            factors = oracle_normal_factors(git, delta, sec, lams)
            dual = oracle_restricted_basis(wc, basis, delta, tuple(-x for x in sec.num), sec.den, -lams, images)
            lefts.append(dual / (_oracle_u_forms(git, delta)[0].den * factors.prod(axis=0)))
            rights.append(oracle_restricted_basis(wc, basis, delta, sec.num, sec.den, lams, images))
        # C-contiguous, as a product's last bits follow its operands' layout
        left_re, left_im = (np.ascontiguousarray(np.stack([part(v).T for v in lefts], axis=-1))
                            for part in (np.real, np.imag))
        right_re, right_im = (np.ascontiguousarray(np.stack([part(v).T for v in rights], axis=1))
                              for part in (np.real, np.imag))
        gram = np.empty((lams.shape[1], len(basis), len(basis)), dtype=complex)
        gram.real = left_re @ right_re - left_im @ right_im
        gram.imag = left_re @ right_im + left_im @ right_re
    return gram.transpose(1, 2, 0)


# ---------------------------------------------------------------------------
# the Barnes line integrated at one point over the whole cut |Im s| <= t_max


def column_bases(spec, lam):
    """beta_j + d_j of the spec at the sample lam: the bases of the one
    column of a stack of one."""
    return tuple(b + complex(d / spec.det) for b, d in zip(spec.betas(lam), spec.d))


def pole_scan(e, bases, re_min, re_max):
    """The non-integer poles (j, n, p) with real part in [re_min, re_max],
    by direction j and then by n, of one column: bases[j] is its
    beta_j + d_j."""
    poles = []
    for j, (ej, base) in enumerate(zip(e, bases)):
        if ej >= 0:
            continue
        l = -ej
        n = 0
        while True:
            p = (base - n) / l
            if p.real < re_min:
                break
            if p.real <= re_max:
                poles.append((j, n, p))
            n += 1
    return poles


def _point_text(z):
    return "the integer %d" % z if isinstance(z, int) else "the pole %.6g%+.6gj" % (z.real, z.imag)


def closest(pts):
    """(distance, p, q): the nearest two of the poles pts, or a pole p and
    its nearest integer q, whichever are nearer."""
    return min([(abs(p - q), p, q) for p, q in itertools.combinations(pts, 2)]
               + [(abs(p - round(p.real)), p, round(p.real)) for p in pts],
               key=lambda c: c[0], default=(float("inf"), None, None))


def oracle_line_setup(e, columns, contour, name):
    """The abscissa of each column of a Barnes-line stack and the pole
    counts per direction, column by column over Python lists of poles: the
    set-up of mb_integral_with_error as a loop.  Row c of columns holds
    beta_j + d_j of column c; a failure raises for the first failing column,
    its separation checked before its abscissa, with name(c) before the
    text."""
    re_min = -3.0 if contour.abscissa is None else min(-3.0, contour.abscissa - 1.0)
    sigmas, counts = [], {}
    for c, column in enumerate(columns):
        poles = pole_scan(e, column, re_min, float("inf"))
        window = [p for _j, _n, p in poles if p.real <= 2.0]
        gap, p, q = closest(window)
        if gap < contour.clearance:
            raise PoleCollision("%s: left poles are closer than the clearance radius: %s and %s are"
                                " %g apart" % (name(c), _point_text(p), _point_text(q), gap))
        try:
            sigma = oracle_abscissa(window, contour)
        except ContourTooClose as exc:
            raise ContourTooClose("%s: %s" % (name(c), exc)) from None
        sigmas.append(sigma)
        for j, n, p in poles:
            if p.real > sigma - 1.0:
                counts[j] = max(counts.get(j, 0), n + 1)
    return sigmas, counts


def left_poles(spec, lam, contour=ContourSpec()):
    """The non-integer poles of the integrand with real part from -3, or
    from sigma - 1 for a given abscissa sigma below -2, up to 2."""
    sigma = contour.abscissa
    re_min = -3.0 if sigma is None else min(-3.0, sigma - 1.0)
    return pole_scan(spec.e, column_bases(spec, lam), re_min, 2.0)


def right_poles(spec, lam, sigma):
    """The non-integer poles of the integrand right of the line Re s = sigma."""
    return [(j, n, p) for j, n, p in pole_scan(spec.e, column_bases(spec, lam), sigma, float("inf"))
            if p.real > sigma]


def pole_separation(spec, lam, contour=ContourSpec()):
    """Minimum pairwise distance among all left poles and the integers."""
    return closest([p for _j, _n, p in left_poles(spec, lam, contour)])[0]


def choose_abscissa(spec, lam, contour):
    """The given abscissa, or the one in [-0.45, -0.05] farthest from every
    pole's real part; either must clear them by the contour's clearance."""
    return oracle_abscissa([p for _j, _n, p in left_poles(spec, lam, contour)], contour)


def oracle_abscissa(poles, contour):
    """The abscissa of a column, the 41 candidates scored one by one over a
    Python list of its poles: max picks the first largest gap.  A given
    abscissa must be negative, and a gap below the clearance names the
    nearest integer, or else the first nearest pole."""
    def gap(sigma):
        return min([abs(sigma - p.real) for p in poles] + [abs(sigma - round(sigma))])

    sigma = contour.abscissa
    if sigma is None:
        sigma = max((-0.45 + 0.01 * k for k in range(41)), key=gap)
    elif not sigma < 0:
        raise ContourTooClose("abscissa %g is not negative" % sigma)
    if gap(sigma) < contour.clearance:
        near = min([round(sigma)] + list(poles), key=lambda z: abs(sigma - z.real))
        raise ContourTooClose("abscissa %g clears the poles by only %g, from %s"
                              % (sigma, gap(sigma), _point_text(near)))
    return sigma


def oracle_mb_integral(spec, x, lam, contour):
    """(value, error, mass) of the Barnes integral at the single point x.

    The line Re s = sigma is integrated over all of |Im s| <= t_max by the
    trapezoid rule with step gap / 8, the error being the difference from
    the rule with twice the step plus the tails bounded from |integrand| at
    +-t_max; every pole right of the line adds its residue.  The poles are
    separated, and the gap read, down to real part min(-3, sigma - 1) for a
    given abscissa sigma.  mass is the integral of |integrand| over the
    line divided by 2 pi plus the sum of the residues' moduli, the scale of
    the rounding in the value.
    """
    xi, log_xi = _split_xi(spec, x)
    if pole_separation(spec, lam, contour) < contour.clearance:
        raise PoleCollision("left poles are closer than the clearance radius")
    sigma = choose_abscissa(spec, lam, contour)
    reals = [p.real for _j, _n, p in left_poles(spec, lam, contour)]
    gap = min([abs(sigma - r) for r in reals] + [abs(sigma - round(sigma))])
    bases = column_bases(spec, lam)

    def F(t):
        s = sigma + 1j * t
        return np.exp(LOG_PI - oracle_log_sin_pi(s) + s * log_xi
                      + _log_gamma_block(spec.e, bases, s))

    t_max = contour.t_max
    n = 2 * math.ceil(2 * t_max / (2 * gap / 8))
    y = F(np.linspace(-t_max, t_max, n + 1))
    step = 2 * t_max / n
    fine = step * (y.sum() - 0.5 * (y[0] + y[-1]))
    coarse = 2 * step * (y[::2].sum() - 0.5 * (y[0] + y[-1]))
    tail = (abs(y[-1]) + abs(y[0])) / max(math.pi - abs(cmath.phase(xi)), 1e-9)
    value = -complex(fine) / (2 * math.pi)
    mass = step * (np.abs(y).sum() - 0.5 * (abs(y[0]) + abs(y[-1]))) / (2 * math.pi)
    for j, n_j, _p in right_poles(spec, lam, sigma):
        residue = complex(_interesting_residue(spec.e, bases, log_xi, j, n_j))
        value -= residue
        mass += abs(residue)
    return value, float(abs(fine - coarse) + tail) / (2 * math.pi), float(mass)


def oracle_line_reach(spec, xs, lam, contour):
    """The node reach of one column's Barnes line, by the full-probe cut
    rule: the integrand at the points xs on every integer |t| <= t_max, T
    1 past the largest |t| at which it still reaches, at some point, 2^-60
    of its sum over those integers, at least 8 and at most t_max, and the
    reach 2 floor(3 T), with at least 2 nodes."""
    sigma = oracle_line_setup(spec.e, [column_bases(spec, lam)], contour, str)[0][0]
    probe = np.arange(-math.floor(contour.t_max), math.floor(contour.t_max) + 1)
    s = sigma + 1j * probe
    g = LOG_PI - oracle_log_sin_pi(s) + oracle_log_gamma_block(spec, spec.betas(lam), s)
    log_abs = np.array([(g + s * _split_xi(spec, x)[1]).real for x in xs])
    weight = np.exp(log_abs - log_abs.max(axis=-1, keepdims=True))
    heavy = (weight >= 2.0 ** -60 * weight.sum(axis=-1, keepdims=True)).any(axis=0)
    cut = min(contour.t_max, max(8.0, 1.0 + max(np.abs(probe[heavy]), default=0)))
    return 2 * max(1, math.floor(3 * cut))


# ---------------------------------------------------------------------------
# per-factor and per-degree evaluations, kept as bit-for-bit oracles of the
# stacked Gamma blocks, residue classes and Euler products


def oracle_log_gamma_block(spec, betas, s, skip=None):
    """Sum of the integrand's log-Gamma factors at s, one log_gamma call per
    factor, leaving out the factor of index skip."""
    acc = 0j
    for j in range(len(spec.d)):
        if j == skip:
            continue
        ej = spec.e[j]
        base = betas[j] + complex(spec.d[j] / spec.det)
        if ej < 0:
            acc = acc + oracle_log_gamma(-base - s * ej)
        else:
            acc = acc - oracle_log_gamma(1 + base + s * ej)
    return acc


def oracle_left_residues(spec, x, lam, j_minus, residue_class):
    """The residues in one congruence class of one negative direction, at
    n = k*l + residue_class for k = 0, 1, ..., 200, each evaluated on its
    own Gamma arguments."""
    xi, log_xi = _split_xi(spec, x)
    betas = spec.betas(lam)
    l = -spec.e[j_minus]
    n = np.arange(201) * l + residue_class
    p = (betas[j_minus] + complex(spec.d[j_minus] / spec.det) - n) / l
    log_term = (-oracle_log_gamma(n + 1.0) - math.log(l) + LOG_PI - oracle_log_sin_pi(p)
                + p * log_xi + oracle_log_gamma_block(spec, betas, p, skip=j_minus))
    return np.where(n % 2, -1.0, 1.0) * np.exp(log_term)


def left_residue_terms(spec, x, lam, j_minus, residue_class):
    """Minus the residues in one congruence class of one negative direction,
    all 201 evaluated, then summed by the stop rule; their sum is the
    contribution of a single next-to partner to the continued series."""
    return -oracle_sum_until_small(oracle_left_residues(spec, x, lam, j_minus, residue_class))


def oracle_left_residue_sum(spec, x, lam):
    """Sum of all residues left of the contour, class by class."""
    total = 0j
    for j in range(len(spec.d)):
        if spec.e[j] >= 0:
            continue
        for residue_class in range(-spec.e[j]):
            total -= left_residue_terms(spec, x, lam, j, residue_class)
    return total


def right_residue_terms(spec, x, lam):
    """The residues at the nonnegative integers k = 0, 1, ..., 80."""
    _xi, log_xi = _split_xi(spec, x)
    k = np.arange(81)
    return np.where(k % 2, -1.0, 1.0) * np.exp(
        oracle_log_gamma_block(spec, spec.betas(lam), k.astype(complex)) + k * log_xi)


def oracle_right_residue_sum(spec, x, lam):
    """All 81 right residues evaluated, then summed by the stop rule."""
    return oracle_sum_until_small(right_residue_terms(spec, x, lam))


def _mpmath_point(spec, x, lam):
    """The bases beta_j + d_j and log xi of a column at the point x, from
    the same floats as the library's, as mpmath numbers."""
    import mpmath

    xi, _log_xi = _split_xi(spec, x)
    return ([mpmath.mpc(b.real, b.imag) for b in column_bases(spec, lam)],
            mpmath.log(mpmath.mpc(xi.real, xi.imag)))


def mpmath_right_residues(spec, x, lam, count):
    """The right residues at k = 0, ..., count - 1, each written out in
    mpmath at the working precision from the column's floats."""
    import mpmath

    bases, log_xi = _mpmath_point(spec, x, lam)
    out = []
    for k in range(count):
        term = (-1) ** k * mpmath.exp(k * log_xi)
        for base, e in zip(bases, spec.e):
            term *= mpmath.gamma(-base - k * e) if e < 0 else mpmath.rgamma(1 + base + k * e)
        out.append(term)
    return out


def mpmath_left_residues(spec, x, lam, j_minus, residue_class, count):
    """The residues at n = k*l + residue_class, k = 0, ..., count - 1, of
    the negative direction j_minus, e_j = -l, written out in mpmath."""
    import mpmath

    bases, log_xi = _mpmath_point(spec, x, lam)
    l = -spec.e[j_minus]
    out = []
    for k in range(count):
        n = k * l + residue_class
        p = (bases[j_minus] - n) / l
        term = ((-1) ** n / (mpmath.factorial(n) * l) * mpmath.pi / mpmath.sin(mpmath.pi * p)
                * mpmath.exp(p * log_xi))
        for j, (base, e) in enumerate(zip(bases, spec.e)):
            if j != j_minus:
                term *= mpmath.gamma(-base - p * e) if e < 0 else mpmath.rgamma(1 + base + p * e)
        out.append(term)
    return out


def stop_position(terms):
    """The index of the last term that the stop rule adds: the third of the
    first three terms in a row below 1e-14 times max(1, |partial sum|), or
    None when the rule does not stop."""
    totals = np.cumsum(terms)
    small = np.abs(terms) < 1e-14 * np.maximum(1.0, np.abs(totals))
    stops = np.flatnonzero(small[:-2] & small[1:-1] & small[2:])
    return int(stops[0]) + 2 if len(stops) else None


def fraction_gamma_ratio(d0, dk):
    """Gamma(1 + d0) / Gamma(1 + dk) for integers, exactly; zero when dk < 0."""
    if dk < 0:
        return Fraction(0)
    assert d0 >= 0
    return Fraction(math.prod(range(dk + 1, d0 + 1)), math.prod(range(d0 + 1, dk + 1)))


def fraction_exact_part(factors, ks):
    """The exact part of the inner-series coefficients at the integers ks,
    built in Fractions, factor by factor: (live, log |product| of the live
    k, sign of the live k) for the (d0, e_j) of the exact factors."""
    exact = [Fraction(1)] * len(ks)
    for d0, ej in factors:
        exact = [x * fraction_gamma_ratio(d0, d0 + k * ej) if x else x for x, k in zip(exact, ks)]
    kept = [x for x in exact if x]
    return (np.array([x != 0 for x in exact], dtype=bool),
            np.array([math.log(abs(x.numerator)) - math.log(x.denominator) for x in kept]),
            np.array([1.0 if x > 0 else -1.0 for x in kept]))


def oracle_inner_sum_coefficient(spec, k, lam):
    """Inner-series coefficients at the integer array k, with the exact
    Gamma ratios rebuilt in Fractions and one pair of log_gamma calls per
    generic factor."""
    ks = np.asarray(k, dtype=int)
    betas = spec.betas(lam)
    factors, generic = [], []
    for d0, ej, b in zip(spec.d, spec.e, betas):
        if b == 0 and d0 % spec.det == 0:
            factors.append((d0 // spec.det, ej))
        else:
            generic.append((1 + b + complex(d0 / spec.det), ej))
    live, log_exact, sign = fraction_exact_part(factors, ks.tolist())
    k_live = ks[live]
    log_acc = np.zeros(len(k_live), dtype=complex)
    for a0, ej in generic:
        ak = a0 + k_live * ej
        check_generic(a0, 1e-8)
        check_generic(ak, 1e-8)
        log_acc += np.where(k_live == 0, 0j, oracle_log_gamma(a0) - oracle_log_gamma(ak))
    out = np.zeros(len(ks), dtype=complex)
    out[live] = sign * np.exp(log_acc + log_exact)
    return out


def oracle_euler_products(spec, lam, n):
    """The two Euler-operator products on the monomial of degree n, a Python
    int, in complex scalar arithmetic."""
    betas = spec.betas(lam)
    plus = 1.0 + 0j
    minus = 1.0 + 0j
    for j in range(len(spec.d)):
        ej = spec.e[j]
        base = complex(spec.d[j] / spec.det) + betas[j]
        if ej > 0:
            for l in range(ej):
                plus *= ej * n + base - l
        elif ej < 0:
            for l in range(-ej):
                minus *= ej * n + base - l
    return plus, minus


def oracle_gkz_ode_residual(series, spec, lam):
    """Largest relative residual of the annihilating operator, degree by
    degree in complex scalar arithmetic."""
    products = [oracle_euler_products(spec, lam, n) for n in range(series.order + 1)]
    plus = [p * c for (p, _m), c in zip(products, series.coeffs)]
    minus = [0j] + [m * c for (_p, m), c in zip(products, series.coeffs[:-1])]
    scale = max(abs(t) for t in plus + minus)
    if scale == 0.0:
        return 0.0
    return max(abs(a - b) for a, b in zip(plus, minus)) / scale


# ---------------------------------------------------------------------------
# the plain log-Gamma kernel and the residue stop rule


_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_LOG_SQRT_2PI = 0.9189385332046727417803297


def oracle_log_sin_pi(z):
    """A logarithm of sin(pi z), elementwise for a scalar or an array, stable
    for large imaginary part.

    The branch is unspecified; callers only ever exponentiate sums of these.
    An exact integer raises PoleCollision.
    """
    scalar = np.ndim(z) == 0
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty_like(z)
    near = np.abs(z.imag) < 20.0
    up = z.imag >= 20.0
    down = z.imag <= -20.0
    zn = z[near]
    poles = (zn.imag == 0) & (zn.real == np.floor(zn.real))
    if np.any(poles):
        raise PoleCollision("sin(pi z) vanishes at z=%r" % (complex(zn[poles][0]),))
    out[near] = np.log(np.sin(math.pi * zn))
    # sin(pi z) = (i/2) e^{-i pi z} (1 - e^{2 i pi z}), and its mirror image;
    # at |Im z| >= 20, |e^{2 i pi z}| < 1e-54, so log(1 - e^{2 i pi z}) is
    # below the rounding of the other terms, whose real part exceeds 62
    out[up] = cmath.log(0.5j) - 1j * math.pi * z[up]
    out[down] = cmath.log(-0.5j) + 1j * math.pi * z[down]
    return complex(out[0]) if scalar else out


def oracle_log_gamma(z):
    """log Gamma(z), elementwise for a complex scalar or array, accurate to
    ~1e-14 relative.

    Right half-plane by the Lanczos sum; left half-plane by reflection.  The
    branch on the left is not the principal one, which is harmless here
    because results are only exponentiated.  An exact nonpositive integer
    anywhere in z raises PoleCollision.
    """
    scalar = np.ndim(z) == 0
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    left = z.real < 0.5
    poles = left & (z.imag == 0) & (z.real == np.floor(z.real))
    if np.any(poles):
        raise PoleCollision("log_gamma pole at %r" % (complex(z[poles][0]),))
    zm1 = np.where(left, 1.0 - z, z) - 1.0
    s = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        s = s + _LANCZOS_C[k] / (zm1 + k)
    t = zm1 + _LANCZOS_G + 0.5
    out = _LOG_SQRT_2PI + (zm1 + 0.5) * np.log(t) - t + np.log(s)
    if np.any(left):
        out[left] = LOG_PI - oracle_log_sin_pi(z[left]) - out[left]
    return complex(out[0]) if scalar else out


def oracle_sum_until_small(terms):
    """Sum of the terms in order, stopped after the third term in a row below
    1e-14 times max(1, |partial sum|)."""
    if not len(terms):
        return 0j
    end = stop_position(terms)
    return complex(np.cumsum(terms)[-1 if end is None else end])


# ---------------------------------------------------------------------------
# next-to pairs and connection coefficients on Fraction lifts, as they were
# before the integer route: line classes and lifts by Fraction arithmetic,
# pairings from the sector's Fraction pairings plus D_j . floor(lift), and
# the restrictions from oracle_restrict_u


def fraction_line_class(v, e):
    """The class of v in Q^r / (Q e + Z^r) as Fractions: the fractional parts
    of (U v)[1:], U unimodular with U e = e_1 the Hermite transform of e."""
    v = ratvec(v)
    s = lcm(*(x.denominator for x in v))
    _H, U = hermite_with_transform([[x] for x in intvec(e)])
    uv = [sum(a * x.numerator * (s // x.denominator) for a, x in zip(row, v)) for row in U]
    return tuple(Fraction(x % s, s) for x in uv[1:])


def fraction_next_to_pairs(wc):
    """All next-to pairs of inertia fixed points across the wall, matched by
    Fraction line classes."""
    plus_min = set(wc.A_plus.minimal)
    across = [d for d in wc.A_minus.minimal if d not in plus_min]
    by_class = {}
    for lm in fixed_point_labels(wc.git, wc.A_minus):
        if lm.delta not in plus_min:
            by_class.setdefault((lm.delta, fraction_line_class(lm.f, wc.e)), []).append(lm)
    adjacent = {}
    out = []
    for lp in fixed_point_labels(wc.git, wc.A_plus):
        if lp.delta in wc.A_minus.minimal:
            continue
        if lp.delta not in adjacent:
            adjacent[lp.delta] = [d for d in across if anticones_next_to(wc, lp.delta, d)]
        key = fraction_line_class(lp.f, wc.e)
        for delta in adjacent[lp.delta]:
            out += [(lp, lm) for lm in by_class.get((delta, key), ())]
    return out


def fraction_compatible_minus_lift(wc, label_plus, label_minus):
    """Lift of the minus sector with f_minus - f_plus a rational multiple of
    e, alpha found by the candidate loop."""
    alpha = oracle_line_membership(tuple(y - x for x, y in zip(label_plus.f, label_minus.f)), wc.e)
    if alpha is None:
        raise ValueError("sectors are not next to each other")
    return tuple(x + alpha * y for x, y in zip(label_plus.f, wc.e))


@functools.lru_cache(maxsize=None)
def _oracle_u_forms(git, delta):
    """oracle_restrict_u as LinearForms over the isotropy order, an int as
    in the library, once per GIT data and anticone."""
    det = fraction_det([git.D[i] for i in delta])
    assert det.denominator == 1, "a determinant of integers is an integer"
    det = abs(det.numerator)
    return tuple(LinearForm(tuple(intvec([c * det for c in coeffs])), det)
                 for coeffs in oracle_restrict_u(git, delta))


@dataclass(frozen=True)
class FractionCoefficient:
    """The fields of a connection coefficient with its lifts and shift as
    Fractions."""

    j_minus: int
    l: int
    w: int
    lift_plus: tuple
    lift_minus: tuple
    u_form: object
    shift: Fraction
    ratio_js: tuple
    ratio_terms: tuple

    def describe(self):
        """The closed form's text, the shift written by str of a Fraction."""
        return (
            "exp(-pi*i*%d/%d * X) * sin(pi X)/(%d sin(pi X/%d)) * prod over j in %s"
            " of sin(pi(u_j(d+)/2pi i + D_j f+))/sin(pi(u_j(d-)/2pi i + D_j f-));"
            " X = (%s)/(2 pi i) + %s"
            % (self.w, self.l, self.l, self.l, list(self.ratio_js), self.u_form, self.shift)
        )


def lift_fractions(lift):
    """An integer lift (s, n, c) of a ContinuationCoefficient as the
    Fraction vector n / s."""
    s, n, _c = lift
    return tuple(Fraction(x, s) for x in n)


def coefficient_fractions(coeff):
    """A ContinuationCoefficient's fields with its integer lifts and shift
    read as Fractions."""
    return FractionCoefficient(
        j_minus=coeff.j_minus, l=coeff.l, w=coeff.w, lift_plus=lift_fractions(coeff.lift_plus),
        lift_minus=lift_fractions(coeff.lift_minus), u_form=coeff.u_form, shift=Fraction(*coeff.shift),
        ratio_js=coeff.ratio_js, ratio_terms=coeff.ratio_terms)


def fraction_continuation_coefficient(wc, pair, lift_plus=None, lift_minus=None):
    """The connection coefficient's fields built on Fraction lifts."""
    label_plus, label_minus = pair
    j_minus = next(i for i in label_minus.delta if i not in label_plus.delta)
    l = -wc.pair_e(j_minus)
    assert l > 0
    ratio_js = tuple(j for j in wc.M_minus if j != j_minus)
    used = (j_minus,) + ratio_js
    lift_plus = label_plus.f if lift_plus is None else ratvec(lift_plus)
    lift_minus = (fraction_compatible_minus_lift(wc, label_plus, label_minus) if lift_minus is None
                  else ratvec(lift_minus))
    pairings = []
    for lift, sec in ((lift_plus, label_plus.sector), (lift_minus, label_minus.sector)):
        # the sector's f = num / den is the fractional part of every lift of it
        if any((x.numerator % x.denominator) * sec.den != n * x.denominator
               for x, n in zip(lift, sec.num)):
            raise IncompatibleLifts("lift does not represent the sector class")
        # D_j . lift: the sector's exact pairing D_j . f plus the integer D_j . floor(lift)
        floor = [x.numerator // x.denominator for x in lift]
        pairings.append({j: Fraction(sec.pairings[j], sec.den)
                         + sum(a * b for a, b in zip(wc.git.D[j], floor)) for j in used})
    c_plus, c_minus = pairings
    v, e = [a - b for a, b in zip(lift_plus, lift_minus)], wc.e
    if any(v[i] * e[k] != v[k] * e[i] for i, k in itertools.combinations(range(len(e)), 2)):
        raise IncompatibleLifts("lifts do not differ by a multiple of the wall normal")
    u_plus = _oracle_u_forms(wc.git, label_plus.delta)
    u_minus = _oracle_u_forms(wc.git, label_minus.delta)
    ratio_terms = tuple((u_plus[j], complex(c_plus[j]), u_minus[j], complex(c_minus[j]))
                        for j in ratio_js)
    return FractionCoefficient(
        j_minus=j_minus,
        l=l,
        w=w_constant(wc),
        lift_plus=lift_plus,
        lift_minus=lift_minus,
        u_form=u_plus[j_minus],
        shift=c_plus[j_minus] - c_minus[j_minus],
        ratio_js=ratio_js,
        ratio_terms=ratio_terms,
    )


def fraction_coefficient_value(coeff, lam):
    """The coefficient at lam, its constants converted on every call."""
    X = coeff.u_form(lam) / TWO_PI_I + complex(coeff.shift)
    val = cmath.exp(-1j * math.pi * coeff.w * X / coeff.l)
    if coeff.l > 1:
        val *= cmath.sin(math.pi * X) / (coeff.l * cmath.sin(math.pi * X / coeff.l))
    for u_plus, c_plus, u_minus, c_minus in coeff.ratio_terms:
        num = u_plus(lam) / TWO_PI_I + c_plus
        den = u_minus(lam) / TWO_PI_I + c_minus
        val *= cmath.sin(math.pi * num) / cmath.sin(math.pi * den)
    return val


# ---------------------------------------------------------------------------
# the continuation matrix as it was: every cell, zero cells included


def dense_continuation_matrix(wc):
    """The continuation matrix with a kind for every (row, col) cell:
    identity on equal labels, a connection coefficient on next-to pairs, and
    "zero" on every other cell; pairs and coefficients by the Fraction
    route."""
    rows = tuple(fixed_point_labels(wc.git, wc.A_plus))
    cols = tuple(fixed_point_labels(wc.git, wc.A_minus))
    kinds = {(i, j): "identity" if lp == lm else "zero"
             for i, lp in enumerate(rows) for j, lm in enumerate(cols)}
    coeffs = {}
    for lp, lm in fraction_next_to_pairs(wc):
        cell = (rows.index(lp), cols.index(lm))
        kinds[cell] = "coefficient"
        coeffs[cell] = fraction_continuation_coefficient(wc, (lp, lm))
    return ContinuationMatrix(rows=rows, cols=cols, kinds=kinds, coefficients=coeffs)


def dense_continuation_entries(matrix, lams, label_name):
    """The continuation report's entries cell by cell, row-major, zero cells
    included, with each coefficient's values at the samples lams."""
    entries = []
    for i, lp in enumerate(matrix.rows):
        for j, lm in enumerate(matrix.cols):
            kind = matrix.kinds[(i, j)]
            entry = {"row": label_name(lp), "col": label_name(lm), "kind": kind}
            if kind == "coefficient":
                coeff = matrix.coefficients[(i, j)]
                entry["closed_form"] = coeff.describe()
                entry["values"] = [fraction_coefficient_value(coeff, lam) for lam in lams]
            entries.append(entry)
    return entries


# ---------------------------------------------------------------------------
# the report writer as it was: the tree converted to JSON types first, then
# encoded or printed


_JSON_SCALARS = frozenset((str, int, float, bool, type(None)))


def oracle_jsonify(x):
    """The report tree with Fractions as [num, den] and complex numbers as
    [re, im]."""
    kind = type(x)
    if kind in _JSON_SCALARS:
        return x
    if isinstance(x, dict):
        return {str(k): oracle_jsonify(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [oracle_jsonify(v) for v in x]
    if kind is Fraction or isinstance(x, Fraction):
        return [x.numerator, x.denominator]
    if isinstance(x, complex):
        return [x.real, x.imag]
    return x


def oracle_emit(report, as_json):
    """The report, its results converted by oracle_jsonify, as canonical JSON
    or as text."""
    report = dict(report, results=oracle_jsonify(report["results"]))
    if as_json:
        return json.dumps(_oracle_strict(report), sort_keys=True, separators=(",", ":"),
                          allow_nan=False) + "\n"
    out = ["wallcross %s | %s | config %s | seed %s\n" % (
        report["version"], report["command"], report["config_hash"], report["seed"])]
    _oracle_tree(report["results"], out, indent=2)
    out.append("result: %s\n" % ("PASS" if report["pass"] else "FAIL"))
    return "".join(out)


def _oracle_strict(x):
    """The JSON tree with every NaN as "nan" and every infinity as "inf" or
    "-inf", which strict JSON parsers accept."""
    if isinstance(x, dict):
        return {k: _oracle_strict(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_oracle_strict(v) for v in x]
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _oracle_tree(node, out, indent):
    pad = " " * indent
    if isinstance(node, dict):
        for k in node:
            v = node[k]
            if isinstance(v, (dict, list)) and v and not _oracle_is_flat(v):
                out.append("%s%s:\n" % (pad, k))
                _oracle_tree(v, out, indent + 2)
            else:
                out.append("%s%-28s %s\n" % (pad, k + ":", _oracle_fmt_flat(v)))
    elif isinstance(node, list):
        for v in node:
            if isinstance(v, (dict, list)) and v and not _oracle_is_flat(v):
                _oracle_tree(v, out, indent)
                out.append("%s--\n" % pad)
            else:
                out.append("%s- %s\n" % (pad, _oracle_fmt_flat(v)))


def _oracle_is_flat(v):
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v) and len(v) <= 8
    return False


def _oracle_fmt_flat(v):
    if isinstance(v, float):
        return "%.6g" % v
    if isinstance(v, list):
        return "[" + ", ".join(_oracle_fmt_flat(x) for x in v) + "]"
    return str(v)
