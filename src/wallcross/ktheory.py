"""Localized equivariant K-theory at fixed points and the pull-push transform.

Every class is a character line bundle L(rho) times an integer Laurent
polynomial in the inverse divisor bundles S_j.  The pull-push image of a
point basis element is written in closed form, one signed monomial per set of
normal directions, and compared at fixed points with the continuation matrix
applied to the minus side; the Euler pairing is an inertia fixed-point sum.
Restriction to a fixed point is a ring homomorphism, so the verification
drivers restrict a basis class as a product of m - r binomials and its image
by the root average of that product, never expanding either into terms,
every sample at once: the integer rows and forms of a point are planned once
per anticone, a point adds only its phases, and the expanded terms are the
reference.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .gitfan import _fits_int64, _idot, fixed_point_labels
from .hypergeom import TWO_PI_I, check_generic, lambda_matrix, log_gamma
from .lattice import anticone_inverse, intvec, quotient_transversal
from .localization import LinearForm, _theta_numerators, restrict_u, theta_restrict
from .mellinbarnes import coefficient_values, continuation_matrix

# a localization denominator factor smaller than this makes a sample resonant
RESONANCE_CLEARANCE = 1e-9

# the most entries of bumped uhfm rows that UhfmReport.sensitivity forms at once
SENSITIVITY_BLOCK = 1 << 14


class ResonantSample(ValueError):
    """A localization denominator is too close to zero at this sample."""


@dataclass(frozen=True)
class KClass:
    """L(rho) times an integer Laurent polynomial in S_1..S_m."""

    rho: tuple  # integer character of the line bundle factor
    terms: tuple  # sorted tuple of (S exponents, nonzero int)

    def describe(self):
        if not self.terms:
            return "0"
        line = ["L(%s)" % ",".join(map(str, self.rho))] if any(self.rho) else []
        names = ["S%d" % (j + 1) for j in range(len(self.terms[0][0]))]
        parts = []
        for s, c in self.terms:
            factors = [names[j] if s[j] == 1 else "%s^%d" % (names[j], s[j])
                       for j in itertools.compress(range(len(s)), s)]
            body = "*".join(factors + line) or "1"
            parts.append("+" + body if c == 1 else "-" + body if c == -1 else "%+d*%s" % (c, body))
        out = "".join(parts)
        return out[1:] if out.startswith("+") else out


# ---------------------------------------------------------------------------
# point basis and representation lifts


def basis_e(git, delta, rho_hat):
    """Point class at a minimal anticone twisted by a character lift:
    L(rho_hat) times the product of (1 - S_i) over i not in delta, expanded
    one normal direction at a time over its subsets."""
    terms = [((0,) * git.m, 1)]
    for j in (i for i in range(git.m) if i not in delta):
        terms += [(s[:j] + (1,) + s[j + 1:], -c) for s, c in terms]
    return KClass(intvec(rho_hat), tuple(sorted(terms)))


def canonical_rho_lifts(git, delta):
    """Canonical character lifts of the isotropy representations at a point.

    The lift of each class is the unique coset member whose coordinates over
    the anticone's character basis lie in [0, 1): with inverse adj / det,
    those coordinates are integer numerators over det reduced mod det, and
    the lift they combine to is integral.
    """
    adj, det = anticone_inverse(git.D, delta)
    rows = [git.D[i] for i in delta]
    lifts = []
    for k in quotient_transversal(rows):
        t = [sum(x * row[c] for x, row in zip(k, adj)) % det for c in range(git.r)]
        lift = [sum(n * row[a] for n, row in zip(t, rows)) for a in range(git.r)]
        assert all(x % det == 0 for x in lift), "lift is not integral"
        lifts.append(tuple(x // det for x in lift))
    return lifts


def minus_basis(wc):
    """All (delta, rho_hat) labels of the minus-side point basis."""
    return [(delta, rho) for delta in wc.A_minus.minimal for rho in canonical_rho_lifts(wc.git, delta)]


# ---------------------------------------------------------------------------
# the pull-push transform


def fm_transform(wc, delta_minus, rho_hat):
    """Pull-push image of a minus-side point basis element, on the plus side.

    Common anticones map identically.  Across the wall the image is the mean
    over the l-th roots t of 1 / S_{j-} of L(rho_hat) t^(rho_hat.e) (1 + ... +
    t^-(l-1)) prod_{j not in delta_minus} (1 - t^-k_j S_j), k_j = max(D_j.e, 0):
    a set T of normal directions gives (-1)^|T| S^T t^(n_T - i), n_T = rho_hat.e
    - sum_{j in T} k_j, of which only S^T S_{j-}^-floor(n_T / l) survives.
    """
    git = wc.git
    if delta_minus in wc.A_plus.minimal:
        return basis_e(git, delta_minus, rho_hat)
    j_minus = next(i for i in delta_minus if wc.pair_e(i) < 0)
    assert all(wc.pair_e(i) == 0 for i in delta_minus if i != j_minus), (
        "minus anticone across the wall must have a single negative direction"
    )
    l = -wc.pair_e(j_minus)
    # (S^T exponents, n_T, (-1)^|T|), one normal direction at a time
    terms = [((0,) * git.m, _idot(rho_hat, wc.e), 1)]
    for j in range(git.m):
        if j not in delta_minus:
            k_j = max(wc.pair_e(j), 0)
            terms += [(s[:j] + (1,) + s[j + 1:], n - k_j, -c) for s, n, c in terms]
    averaged = ((s[:j_minus] + (-(n // l),) + s[j_minus + 1:], c) for s, n, c in terms)
    return KClass(intvec(rho_hat), tuple(sorted(averaged)))


# fm writes at most this many monomials over all images: the 6-6 flop x
# local P^4 has 30 * 2^16 = 1,966,080 (65 MB of text, 12 s)
FM_MONOMIAL_BUDGET = 2 ** 21


class MonomialBudgetExceeded(ValueError):
    """The pull-push images have more monomials than fm writes."""


def fm_images(wc):
    """(delta, rho, fm_transform image) for every minus basis class.  Each
    image has one monomial per set of its m - r normal directions, so the
    total is counted before any is expanded, and past FM_MONOMIAL_BUDGET
    the images are refused."""
    basis = minus_basis(wc)
    each = 2 ** (wc.git.m - wc.git.r)
    if len(basis) * each > FM_MONOMIAL_BUDGET:
        delta, rho = basis[0]
        raise MonomialBudgetExceeded(
            "the image of e(delta=%s, rho=%s) has 2^%d = %d monomials, and the %d images %d,"
            " past the budget of %d" % (list(delta), list(rho), wc.git.m - wc.git.r, each, len(basis),
                                        len(basis) * each, FM_MONOMIAL_BUDGET))
    return [(delta, rho, fm_transform(wc, delta, rho)) for delta, rho in basis]


# ---------------------------------------------------------------------------
# fixed-point Chern characters


def restriction_terms(git, kclass, delta, num, den):
    """Fixed-point restriction at the lift num / den: (coeff, phase, form) triples.

    The value of a triple is coeff * exp(2 pi i phase) * exp(form(lam)); the
    phase is an exact rational reduced mod 1 and the form is an exact linear
    form over the isotropy order, so zero restrictions cancel exactly.
    L(rho) gives every term the form theta(rho) and the phase rho . num / den;
    each S_j^a adds -a u_j and -a D_j . num / den, all as integer numerators.
    Every exponent is an integer, so the triples depend on the lift only
    modulo Z^r.
    """
    u = restrict_u(git, delta)
    u_nonzero = [[(i, x) for i, x in enumerate(form.num) if x] for form in u]
    d_f = [_idot(row, num) for row in git.D]
    base_phase, base_num = 0, (0,) * git.m
    if any(kclass.rho):
        base_phase = _idot(kclass.rho, num)
        base_num = theta_restrict(git, delta, kclass.rho).num
    out = []
    for exps, c in kclass.terms:
        phase = base_phase
        form = list(base_num)
        for j, a in enumerate(exps):
            if a:
                phase -= a * d_f[j]
                for i, x in u_nonzero[j]:
                    form[i] -= a * x
        out.append((c, Fraction(phase % den, den), LinearForm(tuple(form), u[0].den)))
    return tuple(out)


def eval_terms(terms, lam):
    acc = 0j
    for c, phase, form in terms:
        acc += c * cmath.exp(TWO_PI_I * complex(phase)) * cmath.exp(form(lam))
    return acc


def chern_restrict(git, kclass, label, lam):
    """Numeric fixed-point restriction of the orbifold Chern character."""
    return eval_terms(restriction_terms(git, kclass, label.delta, label.sector.num, label.sector.den), lam)


# ---------------------------------------------------------------------------
# factored restrictions of the minus basis and its images, every sample at once


class _Product(NamedTuple):
    """L(rho) prod_{j not in delta_b} (1 - S_j): the group's line rows times
    its restricted binomials, 1 - S_j|_p = 0 exactly for j in delta."""

    normal: np.ndarray  # the j not in delta_b
    rows: slice  # the line rows

    def __call__(self, values, s):
        return values[self.rows] * (1 - s[self.normal]).prod(axis=0)


class _RootAverage(NamedTuple):
    """fm_transform's images of a group's classes at a fixed point, the same
    closed form factored, the S_j unexpanded: the mean over the l-th roots t
    of 1 / S_{j-}|_p of P(t) = L(rho) t^(rho.e) (1 + ... + t^-(l-1))
    prod_{j not in delta_b} (1 - t^-k_j S_j), the w^0 coefficient of P mod
    w^l = 1 for t = tau w.
    The factors exact in t (the geometric sum, 1 - t^-k_j for j in delta)
    give the integer coefficients ``exact``; each L(rho) tau^n is one row,
    summed into its class of n mod l, so a class of zero coefficients stays
    0.0.  The rows of the moving factors 1 - w^-k_j tau^-k_j S_j|_p, j in
    neither delta_b nor delta, shared by the groups of an anticone, multiply
    the classes cyclically."""

    l: int
    exact: list  # coefficients of t^(n0 - d), d = 0, 1, ...
    terms: tuple  # the d with a nonzero coefficient
    pick: np.ndarray  # per class, its n0 = rho.e mod l
    shifts: tuple  # per moving j, (arange(l) - k_j) mod l, or None for k_j = 0 mod l
    rows: slice  # the rows L(rho) tau^(n0 - d)
    moving_rows: np.ndarray  # per moving j, its row tau^-k_j S_j, counted from the end

    def __call__(self, values, s):
        rows, size, stride = values[self.rows], len(self.pick), len(self.terms)
        classes = np.zeros((size, self.l, rows.shape[1]), dtype=complex)
        for t, d in enumerate(self.terms):
            classes[:, d % self.l] += self.exact[d] * rows[t::stride]
        for shift, x in zip(self.shifts, values[self.moving_rows]):
            classes = classes - (classes if shift is None else classes[:, shift]) * x
        return classes[np.arange(size), self.pick]


class _Plan(NamedTuple):
    """Every row of one anticone's points: row k is exp(2 pi i (p_k . num
    mod den * mult_k) / (den * mult_k)) exp(f_k(lam)), the S_j first, then
    each group's, then the moving directions'."""

    phases: np.ndarray  # (rows, r) integer rows p_k: int64, or object where int64 could overflow
    top: int  # the largest absolute phase entry or modulus multiple
    mults: np.ndarray  # per row, the multiple of den its phase is taken over
    forms: np.ndarray  # (rows, m) float form coefficients
    groups: tuple  # (classes slice, _Product or _RootAverage) per basis group


@lru_cache(maxsize=256)
def _anticone_plan(git, e, delta, groups):
    """The rows of the S_j, restricted as exp(-2 pi i D_j . num / den)
    exp(-u_j(lam)), then those of every basis group (delta_b, rhos,
    j_minus): its line bundles L(rho), or where its images cross the wall
    at a j_minus not in delta, their rows L(rho) tau^(n0 - d) over l times
    the point's denominators; last the moving directions' rows tau^-k_j
    S_j, tau^l = 1 / S_{j-}, one for all the groups that share it.  Built
    once per anticone and grouping."""
    u = restrict_u(git, delta)
    pairings = [_idot(row, e) for row in git.D]
    # the moving rows follow every group's, so a group counts them from the end
    moving = list(dict.fromkeys((j_minus, j) for delta_b, _, j_minus in groups if j_minus is not None
                                for j in range(git.m) if j not in delta_b and j not in delta))
    from_end = {key: k - len(moving) for k, key in enumerate(moving)}
    phases = [tuple(-x for x in row) for row in git.D]
    forms = [[-x for x in form.num] for form in u]
    mults, spans, first = [1] * git.m, [], 0
    for delta_b, rhos, j_minus in groups:
        members, start = slice(first, first + len(rhos)), len(phases)
        first += len(rhos)
        thetas = [_theta_numerators(git, delta, rho)[0] for rho in rhos]
        if j_minus is None:
            phases += rhos
            forms += thetas
            mults += [1] * len(rhos)
            normal = np.array([j for j in range(git.m) if j not in delta_b])
            spans.append((members, _Product(normal, slice(start, len(phases)))))
            continue
        l, low, low_u = -pairings[j_minus], git.D[j_minus], u[j_minus].num
        exact = [1] * l
        for k in (max(pairings[j], 0) for j in delta if j not in delta_b):
            exact = [a - b for a, b in zip(exact + [0] * k, [0] * k + exact)]
        terms = tuple(d for d, c in enumerate(exact) if c)
        n0 = [_idot(rho, e) for rho in rhos]
        phases += [tuple(l * x + (n - d) * y for x, y in zip(rho, low)) for rho, n in zip(rhos, n0) for d in terms]
        forms += [[l * x + (n - d) * y for x, y in zip(theta, low_u)] for theta, n in zip(thetas, n0) for d in terms]
        mults += [l] * (len(phases) - start)
        own = [j for j in range(git.m) if j not in delta_b and j not in delta]
        shifts = tuple(None if k % l == 0 else (np.arange(l) - k) % l for k in (max(pairings[j], 0) for j in own))
        ends = np.array([from_end[j_minus, j] for j in own], dtype=np.intp)
        spans.append((members, _RootAverage(l, exact, terms, np.array(n0) % l, shifts, slice(start, len(phases)), ends)))
    for j_minus, j in moving:
        l, k = -pairings[j_minus], max(pairings[j], 0)
        phases.append(tuple(-k * y - l * z for y, z in zip(git.D[j_minus], git.D[j])))
        forms.append([-k * y - l * z for y, z in zip(u[j_minus].num, u[j].num)])
        mults.append(l)
    top = max(max(abs(x) for p in phases for x in p), max(mults))
    forms = np.array(forms, dtype=float).reshape(len(phases), git.m)
    return _Plan(np.array(phases, dtype=np.int64 if _fits_int64(top, 1) else object), top,
                 np.array(mults, dtype=np.int64), forms / np.array([u[0].den * k for k in mults], dtype=float)[:, None],
                 tuple(spans))


class RestrictedBasis:
    """The (len(basis), S) restrictions of the minus basis classes, or with
    ``images`` of their pull-push images, at fixed points (delta, num / den)
    and the samples ``lams``, an (m, S) array.

    Restriction is a ring homomorphism: with S_j|_p = exp(-2 pi i D_j . num
    / den) exp(-u_j(lam)), L(rho) prod_{i not in delta_b} (1 - S_i)
    restricts to L(rho)|_p times its restricted factors, not 2^(m-r) terms.
    An image on a common anticone is its minus class, and so is one at a
    point whose anticone holds j- (there tau^l = 1); else a root average.
    Every row of a point is an integer phase row and a form: the forms'
    exponentials are taken once per anticone (_anticone_plan), and a point
    multiplies in its phases, reduced in integers, so 1 - S_j|_p = 0
    exactly for j in delta.  A dual class restricts as its class at (-num,
    -lams): the same phase rows negated, the forms at -lams."""

    def __init__(self, wc, basis, lams, images=False):
        self.git, self.e, self.lams, self.size = wc.git, wc.e, lams, len(basis)
        # (delta_b, rhos, j_minus), j_minus only where an image crosses the wall
        self.groups = []
        for delta_b, group in itertools.groupby(basis, key=lambda b: b[0]):
            crossing = images and delta_b not in wc.A_plus.minimal
            j_minus = next(i for i in delta_b if wc.pair_e(i) < 0) if crossing else None
            self.groups.append((delta_b, tuple(rho for _, rho in group), j_minus))
        self._blocks, self._duals = {}, {}

    def _block(self, delta):
        """The anticone's plan and exp(form(lam)) of its rows."""
        if delta not in self._blocks:
            groups = tuple((delta_b, rhos, None if j_minus in delta else j_minus)
                           for delta_b, rhos, j_minus in self.groups)
            plan = _anticone_plan(self.git, self.e, delta, groups)
            # by einsum: after a complex BLAS product numpy's complex exp ran
            # 10-15 times slower (numpy 2.4, OpenBLAS)
            self._blocks[delta] = plan, np.exp(np.einsum("ij,js->is", plan.forms, self.lams))
        return self._blocks[delta]

    def _dual_block(self, delta):
        """exp(form(-lam)) of the anticone's rows, for the duals."""
        if delta not in self._duals:
            self._duals[delta] = np.exp(np.einsum("ij,js->is", self._block(delta)[0].forms, -self.lams))
        return self._duals[delta]

    def _numerators(self, plan, num, den):
        """(n, mods): each row's phase numerator at num and its modulus
        den * mult, in int64 where no product can overflow it, else in
        Python ints."""
        if plan.phases.dtype == np.int64 and _fits_int64(plan.top, sum(map(abs, num)) + den):
            return plan.phases @ np.array(num, dtype=np.int64), den * plan.mults
        return plan.phases.astype(object) @ np.array(num, dtype=object), den * plan.mults.astype(object)

    def _classes(self, plan, block, n, mods):
        """The classes and the S_j rows at phase numerators n over mods."""
        turns = (n % mods).astype(float) / mods.astype(float)
        values = np.exp(TWO_PI_I * turns)[:, None] * block
        s = values[:self.git.m]
        out = np.empty((self.size, values.shape[1]), dtype=complex)
        for members, combine in plan.groups:
            out[members] = combine(values, s)
        return out, s

    def __call__(self, delta, num, den):
        plan, block = self._block(delta)
        return self._classes(plan, block, *self._numerators(plan, num, den))[0]

    def with_dual(self, delta, num, den):
        """The classes, the dual classes and the (m, S) S_j rows at one
        point, from one integer pass: localization_gram's restrict."""
        plan, block = self._block(delta)
        n, mods = self._numerators(plan, num, den)
        out, s = self._classes(plan, block, n, mods)
        return out, self._classes(plan, self._dual_block(delta), -n, mods)[0], s


# ---------------------------------------------------------------------------
# Gamma class and framing at fixed points


def gamma_restrict(git, label, lam, z=1.0):
    """Fixed-point value of the Gamma class, degree-two arguments over z."""
    u = restrict_u(git, label.delta)
    acc = 0j
    for j in range(git.m):
        if j in label.delta:
            continue
        arg = 1 - complex(label.sector.phase(j)) + u[j](lam) / z
        check_generic(arg, 1e-9)
        acc += log_gamma(arg)
    return cmath.exp(acc)


@dataclass(frozen=True)
class FramingValue:
    label: object
    value: complex
    lam: tuple
    z: complex
    log_z: complex
    s_power: Fraction


def framing_restrict(git, E, label, lam, z, log_z=None):
    """Fixed-point value of the framing map applied to a K-class.

    Realized by the rescaling contract: the degree operator sends the torus
    parameters to 2 pi i times themselves inside the Chern character; the
    grading twist divides every degree-two argument by z and multiplies by
    z^(dim/2 - age); the first-Chern twist contributes exp of (the restricted
    tangent class over z) times log z; the inertia involution pulls the
    Chern character back from the inverse sector.
    """
    if log_z is None:
        log_z = cmath.log(z)
    sec = label.sector
    s_power = Fraction(git.m - git.r, 2) - sec.age
    u = restrict_u(git, label.delta)
    lam_scaled = tuple(TWO_PI_I * li / z for li in lam)
    inverse = restriction_terms(git, E, label.delta, tuple(-x for x in sec.num), sec.den)
    rho_val = sum(u[j](lam) for j in range(git.m) if j not in label.delta)
    value = (cmath.exp(s_power * log_z) * cmath.exp((rho_val / z) * log_z)
             * gamma_restrict(git, label, lam, z=z) * eval_terms(inverse, lam_scaled))
    return FramingValue(label=label, value=value, lam=tuple(lam), z=complex(z), log_z=log_z,
                        s_power=s_power)


# ---------------------------------------------------------------------------
# Euler pairing by inertia fixed-point sum


def localization_gram(git, A, restrict):
    """Localized Euler pairings chi(E_a, E_b) at every sample at once.

    ``restrict(delta, num, den)`` gives, at one inertia fixed point, the
    (classes, S) restrictions of the classes, those of their duals, which
    are the classes' at (-num, -lams), and the (m, S) restrictions of the
    S_j.  Each point contributes the dual of E_a times E_b, divided by the
    isotropy order and by its normal factors 1 - S_j|_p, j not in delta;
    no product class is formed.
    The points are stacked in contiguous real and imaginary arrays, summed by
    four real products per sample (complex exp slowed after a complex one).
    Returns the (classes, classes, S) Gram array and, per sample, the
    smallest normal factor in absolute value.
    """
    labels = fixed_point_labels(git, A)
    # resonant samples divide by ~0 here, and the callers mask them out; a
    # small |z| overflows the exponentials, and the NaN it leaves FAILs the
    # suite's gate
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for p, label in enumerate(labels):
            delta, sec = label.delta, label.sector
            v_right, v_dual, s = restrict(delta, sec.num, sec.den)
            factors = 1 - s[[j for j in range(git.m) if j not in delta]]
            if p == 0:
                # (S, P, B) stacks, real then imaginary, filled a point's
                # rows at a time
                (B, S), P = v_right.shape, len(labels)
                smallest = np.full(S, np.inf)
                left_re, left_im, right_re, right_im = (np.empty((S, P, B)) for _ in range(4))
            smallest = np.minimum(smallest, np.abs(factors).min(axis=0, initial=np.inf))
            v_left = (v_dual / (anticone_inverse(git.D, delta)[1] * factors.prod(axis=0))).T
            left_re[:, p], left_im[:, p] = v_left.real, v_left.imag
            right_re[:, p], right_im[:, p] = v_right.T.real, v_right.T.imag
        # the left stacks as contiguous (S, B, P) arrays: a transposed operand
        # changes the products' last bits
        left_re, left_im = (np.ascontiguousarray(x.transpose(0, 2, 1)) for x in (left_re, left_im))
        gram = np.empty((S, B, B), dtype=complex)
        gram.real = left_re @ right_re - left_im @ right_im
        gram.imag = left_re @ right_im + left_im @ right_re
    return gram.transpose(1, 2, 0), smallest


def euler_pairing(git, A, E, F, lam, z=None):
    """Equivariant Euler pairing by summation over inertia fixed points.

    The one-sample case of localization_gram on the expanded restrictions
    of E and F and of the S_j, the reference for the factored ones; the
    modified pairing substitutes 2 pi i lam/z for lam first.
    """
    lam = lambda_matrix([lam], None if z is None else [z])[:, 0]
    units = [KClass((0,) * git.r, (((0,) * j + (1,) + (0,) * (git.m - j - 1), 1),)) for j in range(git.m)]

    def expanded(delta, num, den):
        def at(classes, num, lam):
            return np.array([[eval_terms(restriction_terms(git, c, delta, num, den), lam)] for c in classes],
                            dtype=complex)

        return at((E, F), num, lam), at((E, F), tuple(-x for x in num), -lam), at(units, num, lam)

    gram, smallest = localization_gram(git, A, expanded)
    if smallest[0] < RESONANCE_CLEARANCE:
        raise ResonantSample("localization denominator %g" % smallest[0])
    return complex(gram[0, 1, 0])


# ---------------------------------------------------------------------------
# verification drivers


@dataclass(frozen=True, eq=False)
class UhfmReport:
    """The uhfm residual table over minus basis classes b, plus fixed points
    p and samples s.

    diff[b, p, s] is the restriction of the transformed class b at p minus
    the continued value there.  ``pairs`` holds, per next-to pair (p, q),
    the index p and the (B, S) minus basis restrictions at q: the row that
    the coefficient entry (p, q) multiplies.
    """

    basis: tuple
    plus_labels: tuple
    diff: np.ndarray
    pairs: tuple

    @property
    def n_checked(self):
        return self.diff.size

    @property
    def max_residual(self):
        return float(np.abs(self.diff).max(initial=0.0))

    @property
    def worst(self):
        """(basis label, plus fixed point) of the largest residual, or None."""
        if self.max_residual == 0.0:
            return None
        b, p, _s = np.unravel_index(np.argmax(np.abs(self.diff)), self.diff.shape)
        return self.basis[b], self.plus_labels[p]

    def sensitivity(self, epsilon):
        """Smallest max residual after adding epsilon to one coefficient entry.

        Bumping the entry of the pair (p, q) moves row p only, by epsilon
        times the partner row, so the perturbed suite needs no rerun.
        """
        if not self.pairs:
            return float("inf")
        per_point = np.abs(self.diff).max(axis=(0, 2), initial=0.0)
        at, rows = np.array([p for p, _ in self.pairs]), [row for _, row in self.pairs]
        # the bumped rows of as many pairs at a time as fill SENSITIVITY_BLOCK
        step = max(1, SENSITIVITY_BLOCK // max(1, rows[0].size))
        bumped = np.concatenate([
            np.abs(self.diff[:, at[k:k + step]].swapaxes(0, 1) - epsilon * np.stack(rows[k:k + step]))
            .max(axis=(1, 2), initial=0.0) for k in range(0, len(rows), step)])
        # the largest over the other points: the second largest at the
        # largest point, which a NaN is, else the largest
        order = np.argsort(per_point)
        second = per_point[order[-2]] if len(order) > 1 else 0.0
        others = np.where(at == order[-1], second, per_point[order[-1]])
        # max and min as Python takes them: a NaN bump leaves the others, a
        # NaN candidate is passed over
        return float(np.fmin.reduce(np.where(bumped > others, bumped, others), initial=np.inf))


def verify_uhfm(wc, lam_samples):
    """Residuals of the continuation/pull-push compatibility.

    For every minus basis element, every plus fixed point and every sample,
    compares the restriction of the transformed class against the continued
    value: continuation_matrix(wc) applied to the minus-side restrictions,
    its identity cells as they are and its coefficient cells weighted by the
    coefficient at each sample.
    """
    lams = lambda_matrix(lam_samples)
    basis = tuple(minus_basis(wc))
    matrix = continuation_matrix(wc)
    images, classes = RestrictedBasis(wc, basis, lams, images=True), RestrictedBasis(wc, basis, lams)

    def at(restrict, label):
        return restrict(label.delta, label.sector.num, label.sector.den)

    diff = np.stack([at(images, lp) for lp in matrix.rows], axis=1)
    rows = {q: at(classes, matrix.cols[q]) for q in {q for _, q in matrix.kinds}}
    coeffs = matrix.coefficients
    values = dict(zip(coeffs, coefficient_values(list(coeffs.values()), lams)))
    pairs = []
    for (p, q), kind in matrix.kinds.items():
        if kind == "identity":
            diff[:, p] -= rows[q]
            continue
        diff[:, p] -= values[p, q] * rows[q]
        pairs.append((p, rows[q]))
    return UhfmReport(basis=basis, plus_labels=matrix.rows, diff=diff, pairs=tuple(pairs))


def uhfm_sensitivity(wc, lam_samples, epsilon=1e-3):
    """Smallest residual produced by perturbing any one coefficient entry.

    Every coefficient entry of the continuation matrix is bumped by epsilon
    in turn; the minimum over entries of the resulting max residual shows
    the suite cannot pass vacuously.
    """
    return verify_uhfm(wc, lam_samples).sensitivity(epsilon)


class PairingReport(NamedTuple):
    residuals: np.ndarray  # per sample, max over basis pairs of |chi_minus - chi_plus|
    resonant: np.ndarray  # per sample, some localization factor below RESONANCE_CLEARANCE
    worst: tuple  # per sample, the basis labels (E_a, E_b) of the first largest residual


def pairing_residuals(wc, lam_samples, zs):
    """Pairing preservation at every sample: the Gram identity
    chi_minus(E_a, E_b) = chi_plus(FM E_a, FM E_b) over ordered basis pairs,
    with the modified pairing at sample s taken at z = zs[s]."""
    lams = lambda_matrix(lam_samples, zs)
    basis = minus_basis(wc)
    g_minus, small_minus = localization_gram(wc.git, wc.A_minus, RestrictedBasis(wc, basis, lams).with_dual)
    g_plus, small_plus = localization_gram(wc.git, wc.A_plus, RestrictedBasis(wc, basis, lams, images=True).with_dual)
    gaps = np.abs(g_minus - g_plus).reshape(len(basis) ** 2, -1)
    worst = tuple((basis[i // len(basis)], basis[i % len(basis)]) for i in gaps.argmax(axis=0))
    resonant = np.minimum(small_minus, small_plus) < RESONANCE_CLEARANCE
    return PairingReport(gaps.max(axis=0, initial=0.0), resonant, worst)


def verify_pairing_preserved(wc, lam, z):
    """Max residual of pairing preservation over ordered basis pairs."""
    rep = pairing_residuals(wc, [lam], [z])
    if rep.resonant[0]:
        raise ResonantSample("localization denominator below clearance")
    return float(rep.residuals[0])
