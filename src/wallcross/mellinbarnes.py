"""Analytic continuation of inner series by a vertical-line Barnes integral.

The inner series at a fixed point across the wall is represented as a
contour integral of Gamma-function ratios along a vertical line.  Closing
the contour to the right recovers the series; closing to the left produces
the continued expansion, whose residue classes group into closed-form
connection coefficients between next-to fixed points.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gitfan import compatible_minus_lift, fixed_point_labels, next_to_pairs
from .hypergeom import (
    LOG_PI,
    TWO_PI_I,
    PoleCollision,
    conifold_point,
    log_gamma,
    log_sin_pi,
    make_inner_spec,
    w_constant,
)
from .lattice import is_integral, ratvec, vdot, vsub
from .localization import restrict_u


class ContourTooClose(ValueError):
    """No admissible abscissa keeps the stated clearance from all poles."""


class NonConvergent(ValueError):
    """The argument of the wall monomial is outside the convergence sector."""


class IncompatibleLifts(ValueError):
    """Sector lifts do not differ by a rational multiple of the wall normal."""


# ---------------------------------------------------------------------------
# closed-form connection coefficients


@dataclass(frozen=True)
class ContinuationCoefficient:
    """Connection coefficient between a next-to pair of fixed points."""

    label_plus: object
    label_minus: object
    j_minus: int
    l: int
    w: int
    lift_plus: tuple
    lift_minus: tuple
    u_form: object  # u_{j-}(delta_plus) as a LinearForm
    shift: Fraction  # D_{j-} . (f_plus - f_minus)
    ratio_js: tuple  # other negative-pairing indices

    def value(self, wc, lam):
        return _coefficient_value(wc, self, lam)

    def describe(self):
        return (
            "exp(-pi*i*%d/%d * X) * sin(pi X)/(%d sin(pi X/%d)) * prod over j in %s"
            " of sin(pi(u_j(d+)/2pi i + D_j f+))/sin(pi(u_j(d-)/2pi i + D_j f-));"
            " X = (%s)/(2 pi i) + %s"
            % (self.w, self.l, self.l, self.l, list(self.ratio_js), self.u_form, self.shift)
        )


def _is_rational_multiple(v, e):
    """Exact test that v lies on the rational line spanned by e."""
    scalar = None
    for vi, ei in zip(v, e):
        if ei == 0:
            if Fraction(vi) != 0:
                return False
        else:
            s = Fraction(vi) / Fraction(ei)
            if scalar is None:
                scalar = s
            elif s != scalar:
                return False
    return True


def continuation_coefficient(wc, pair, lift_plus=None, lift_minus=None):
    """Closed-form connection coefficient for a next-to pair of labels.

    Lifts default to the canonical plus representative and the compatible
    minus lift; explicitly supplied lifts must differ by a rational multiple
    of the wall normal.
    """
    label_plus, label_minus = pair
    if lift_plus is None:
        lift_plus = label_plus.f
    if lift_minus is None:
        lift_minus = compatible_minus_lift(wc, label_plus, label_minus)
    lift_plus, lift_minus = ratvec(lift_plus), ratvec(lift_minus)
    for lift, label in ((lift_plus, label_plus), (lift_minus, label_minus)):
        if not all(x.denominator == 1 for x in vsub(lift, label.f)):
            raise IncompatibleLifts("lift does not represent the sector class")
    if not _is_rational_multiple(vsub(lift_plus, lift_minus), wc.e):
        raise IncompatibleLifts("lifts do not differ by a multiple of the wall normal")
    j_minus = next(i for i in label_minus.delta if i not in label_plus.delta)
    l = -wc.pair_e(j_minus)
    assert l > 0
    u_plus = restrict_u(wc.git, label_plus.delta)
    shift = vdot(wc.git.D[j_minus], vsub(lift_plus, lift_minus))
    ratio_js = tuple(j for j in wc.M_minus if j != j_minus)
    return ContinuationCoefficient(
        label_plus=label_plus,
        label_minus=label_minus,
        j_minus=j_minus,
        l=l,
        w=w_constant(wc),
        lift_plus=lift_plus,
        lift_minus=lift_minus,
        u_form=u_plus[j_minus],
        shift=shift,
        ratio_js=ratio_js,
    )


def _coefficient_value(wc, coeff, lam):
    git = wc.git
    X = coeff.u_form(lam) / TWO_PI_I + complex(coeff.shift)
    val = cmath.exp(-1j * math.pi * coeff.w * X / coeff.l)
    if coeff.l == 1:
        principal = 1.0 + 0j
    else:
        principal = cmath.sin(math.pi * X) / (coeff.l * cmath.sin(math.pi * X / coeff.l))
    val *= principal
    u_plus = restrict_u(git, coeff.label_plus.delta)
    u_minus = restrict_u(git, coeff.label_minus.delta)
    for j in coeff.ratio_js:
        num = u_plus[j](lam) / TWO_PI_I + complex(vdot(git.D[j], coeff.lift_plus))
        den = u_minus[j](lam) / TWO_PI_I + complex(vdot(git.D[j], coeff.lift_minus))
        val *= cmath.sin(math.pi * num) / cmath.sin(math.pi * den)
    return val


def lift_invariance_check(wc, pair, lam, tol=1e-12):
    """Evaluate the coefficient with distinct compatible lift pairs.

    Shifting the plus lift by the wall normal, the minus lift against it,
    and both lifts by an integer vector must leave the value unchanged.
    """
    base = continuation_coefficient(wc, pair)
    f_plus, f_minus = base.lift_plus, base.lift_minus
    e = ratvec(wc.e)
    unit = tuple(Fraction(int(i == 0)) for i in range(wc.git.r))
    variants = [
        (tuple(a + b for a, b in zip(f_plus, e)), f_minus),
        (f_plus, tuple(a - b for a, b in zip(f_minus, e))),
        (tuple(a + b for a, b in zip(f_plus, unit)), tuple(a + b for a, b in zip(f_minus, unit))),
    ]
    v0 = base.value(wc, lam)
    for lp, lm in variants:
        v = continuation_coefficient(wc, pair, lp, lm).value(wc, lam)
        if abs(v - v0) > tol * max(1.0, abs(v0)):
            return False
    return True


# ---------------------------------------------------------------------------
# the continuation matrix


@dataclass(frozen=True)
class ContinuationMatrix:
    rows: tuple  # plus labels
    cols: tuple  # minus labels
    kinds: dict  # (i, j) -> "identity" | "coefficient" | "zero"
    coefficients: dict  # (i, j) -> ContinuationCoefficient for coefficient entries

    def entry_value(self, wc, i, j, lam):
        kind = self.kinds[(i, j)]
        if kind == "identity":
            return 1.0 + 0j
        if kind == "zero":
            return 0.0 + 0j
        return self.coefficients[(i, j)].value(wc, lam)


def continuation_matrix(wc, lam=None):
    """Block transformation of fixed-point restrictions across the wall.

    Rows over plus fixed points, columns over minus fixed points: identity
    on common anticones, a connection coefficient on next-to pairs, zero
    elsewhere.
    """
    rows = tuple(fixed_point_labels(wc.git, wc.A_plus, side="plus"))
    cols = tuple(fixed_point_labels(wc.git, wc.A_minus, side="minus"))
    pairs = {(lp.delta, lp.f, lm.delta, lm.f): (lp, lm) for lp, lm in next_to_pairs(wc)}
    kinds = {}
    coeffs = {}
    for i, lp in enumerate(rows):
        for j, lm in enumerate(cols):
            if lp.delta == lm.delta and lp.f == lm.f:
                kinds[(i, j)] = "identity"
            elif (lp.delta, lp.f, lm.delta, lm.f) in pairs:
                kinds[(i, j)] = "coefficient"
                coeffs[(i, j)] = continuation_coefficient(wc, (lp, lm))
            else:
                kinds[(i, j)] = "zero"
    return ContinuationMatrix(rows=rows, cols=cols, kinds=kinds, coefficients=coeffs)


# ---------------------------------------------------------------------------
# the Barnes integral


@dataclass(frozen=True)
class ContourSpec:
    abscissa: float = None  # auto-scan when None
    t_max: float = 40.0
    clearance: float = 1e-3


def _log_gamma_block(spec, betas, s, skip=None):
    """Sum of the integrand's log-Gamma factors at s, a scalar or an array,
    leaving out the factor of index skip."""
    acc = 0j
    for j in range(len(spec.d)):
        if j == skip:
            continue
        ej = spec.e[j]
        base = betas[j] + complex(spec.d[j])
        if ej < 0:
            acc = acc + log_gamma(-base - s * ej)
        else:
            acc = acc - log_gamma(1 + base + s * ej)
    return acc


def left_poles(spec, lam, re_min=-3.0, re_max=2.0):
    """The non-integer poles of the integrand with real part in a window."""
    betas = spec.betas(lam)
    poles = []
    for j in range(len(spec.d)):
        if spec.e[j] >= 0:
            continue
        l = -spec.e[j]
        base = betas[j] + complex(spec.d[j])
        n = 0
        while True:
            p = (base - n) / l
            if p.real < re_min:
                break
            if p.real <= re_max:
                poles.append((j, n, p))
            n += 1
    return poles


def pole_separation(spec, lam):
    """Minimum pairwise distance among all left poles and the integers."""
    pts = [p for _j, _n, p in left_poles(spec, lam)]
    return min([abs(p - q) for p, q in itertools.combinations(pts, 2)]
               + [abs(p - round(p.real)) for p in pts], default=float("inf"))


def _abscissa_gap(spec, lam):
    """The distance of an abscissa from the nearest real part of a left pole
    and from the nearest integer, as a function of the abscissa."""
    reals = [p.real for _j, _n, p in left_poles(spec, lam)]
    return lambda sigma: min([abs(sigma - x) for x in reals] + [abs(sigma - round(sigma))])


def choose_abscissa(spec, lam, contour):
    """The given abscissa, or the one in [-0.45, -0.05] farthest from every
    pole's real part; either must clear them by the contour's clearance."""
    gap = _abscissa_gap(spec, lam)
    sigma = contour.abscissa
    if sigma is None:
        sigma = max((-0.45 + 0.01 * k for k in range(41)), key=gap)
    if gap(sigma) < contour.clearance:
        raise ContourTooClose("abscissa %g clears the poles by only %g" % (sigma, gap(sigma)))
    return sigma


def _split_xi(x, w):
    """The rotated variable and its principal logarithm.

    The base of the s-power is the wall monomial rotated by the path phase;
    convergence needs its argument strictly inside (-pi, pi).
    """
    xi = complex(x) * cmath.exp(-1j * math.pi * w)
    if xi == 0:
        raise NonConvergent("wall monomial vanishes")
    if abs(cmath.phase(xi)) > math.pi * (1 - 1e-12):
        raise NonConvergent("argument of the wall monomial is outside the sector")
    return xi, cmath.log(xi)


def _interesting_residue(spec, betas, log_xi, j_minus, n):
    """Residues of the integrand at the n-th poles of one negative direction,
    for an integer or an integer array n."""
    l = -spec.e[j_minus]
    base = betas[j_minus] + complex(spec.d[j_minus])
    p = (base - n) / l
    log_term = (-log_gamma(n + 1.0) - math.log(l) + LOG_PI - log_sin_pi(p) + p * log_xi
                + _log_gamma_block(spec, betas, p, skip=j_minus))
    return np.where(n % 2, -1.0, 1.0) * np.exp(log_term)


def quad(f, a, b, h):
    """Trapezoid rule for f over [a, b] with a step of at most h, and an
    estimate of its error.

    f is called once, on the array of nodes.  The number of steps is even,
    so the rule with twice the step uses every other node; the difference
    of the two rules is the error estimate.
    """
    n = 2 * math.ceil((b - a) / (2 * h))
    y = f(np.linspace(a, b, n + 1))
    ends = 0.5 * (y[0] + y[-1])
    fine = (b - a) / n * (y.sum() - ends)
    coarse = 2 * (b - a) / n * (y[::2].sum() - ends)
    return complex(fine), abs(fine - coarse)


def mb_integral(spec, x, lam, contour=ContourSpec()):
    value, _err = mb_integral_with_error(spec, x, lam, contour)
    return value


def mb_integral_with_error(spec, x, lam, contour=ContourSpec()):
    """Barnes integral along the separating contour, as a vertical line plus
    residue corrections.

    The contour must keep the nonnegative integer poles on its right and all
    other poles on its left.  Non-integer poles whose real part exceeds the
    chosen abscissa are accounted for by adding their residues to the
    straight-line integral, which amounts to bending the line around them.
    The normalization makes the value equal the sum of right residues inside
    the degeneration radius and minus the sum of left residues outside it.

    The line is cut at +-t_max and integrated by the trapezoid rule with
    step gap / 8, where gap is the abscissa's distance from the nearest pole
    real part or integer; the integrand is analytic in a strip of that half-width, so
    the rule converges exponentially.  The error is the difference from the
    rule with twice the step plus a bound on the cut tails.
    """
    w = w_constant_from_spec(spec)
    xi, log_xi = _split_xi(x, w)
    if pole_separation(spec, lam) < contour.clearance:
        raise PoleCollision("left poles are closer than the clearance radius")
    sigma = choose_abscissa(spec, lam, contour)
    betas = spec.betas(lam)

    def F(t):
        s = sigma + 1j * t
        return np.exp(LOG_PI - log_sin_pi(s) + s * log_xi + _log_gamma_block(spec, betas, s))

    integral, err = quad(F, -contour.t_max, contour.t_max, _abscissa_gap(spec, lam)(sigma) / 8)
    decay = math.pi - abs(cmath.phase(xi))
    tail = np.abs(F(np.array([contour.t_max, -contour.t_max]))).sum() / max(decay, 1e-9)
    value = -integral / (2 * math.pi)

    for j, n, p in left_poles(spec, lam, re_min=sigma, re_max=float("inf")):
        if p.real > sigma:
            value -= complex(_interesting_residue(spec, betas, log_xi, j, n))
    return value, float(err + tail) / (2 * math.pi)


def w_constant_from_spec(spec):
    return -1 + sum(e for e in spec.e if e > 0)


# ---------------------------------------------------------------------------
# residue sums


def _sum_until_small(terms, rel_tol):
    """Sum of the terms in order, stopped after the third term in a row below
    rel_tol times max(1, |partial sum|)."""
    if not len(terms):
        return 0j
    totals = np.cumsum(terms)
    small = np.abs(terms) < rel_tol * np.maximum(1.0, np.abs(totals))
    stops = np.flatnonzero(small[:-2] & small[1:-1] & small[2:])
    return complex(totals[stops[0] + 2] if len(stops) else totals[-1])


def right_residue_sum(spec, x, lam, k_max=80, rel_tol=1e-14):
    """Sum of residues at the nonnegative integers; converges inside the
    degeneration radius."""
    w = w_constant_from_spec(spec)
    xi, log_xi = _split_xi(x, w)
    betas = spec.betas(lam)
    k = np.arange(k_max + 1)
    terms = np.where(k % 2, -1.0, 1.0) * np.exp(
        _log_gamma_block(spec, betas, k.astype(complex)) + k * log_xi)
    return _sum_until_small(terms, rel_tol)


def left_residue_terms(spec, x, lam, j_minus, residue_class, k_max=200, rel_tol=1e-14):
    """Minus the residues in one congruence class of one negative direction.

    Terms with n = k*l + residue_class for k = 0, 1, ...; their sum is the
    contribution of a single next-to partner to the continued series.
    """
    w = w_constant_from_spec(spec)
    xi, log_xi = _split_xi(x, w)
    betas = spec.betas(lam)
    n = np.arange(k_max + 1) * -spec.e[j_minus] + residue_class
    return -_sum_until_small(_interesting_residue(spec, betas, log_xi, j_minus, n), rel_tol)


def left_residue_sum(spec, x, lam, k_max=200):
    """Sum of all residues left of the contour (sign unflipped)."""
    total = 0j
    for j in range(len(spec.d)):
        if spec.e[j] >= 0:
            continue
        for residue_class in range(-spec.e[j]):
            total -= left_residue_terms(spec, x, lam, j, residue_class, k_max=k_max)
    return total


def negative_integer_residue_is_zero(spec, n):
    """The residue at -1-n carries a reciprocal Gamma at a nonpositive
    integer over the defining anticone, hence vanishes identically."""
    s = -1 - n
    for j in spec.delta:
        arg = 1 + int(spec.d[j]) + s * spec.e[j]
        if arg <= 0:
            return True
    return False


@dataclass(frozen=True)
class ResidueReport:
    label: object
    x_inside: complex
    x_outside: complex
    residual_inside: float
    residual_outside: float
    quad_error_inside: float
    quad_error_outside: float


def verify_residue_identity(wc, label_plus, x_inside, x_outside, lam, contour=ContourSpec()):
    """Compare the Barnes integral against both residue expansions.

    Inside the degeneration radius the integral equals the right residue
    sum; outside it equals minus the left residue sum.
    """
    c = abs(float(conifold_point(wc)))
    if not (abs(x_inside) < c < abs(x_outside)):
        raise ValueError("need |x_inside| < |conifold| < |x_outside|")
    spec = make_inner_spec(wc, label_plus)
    v_in, err_in = mb_integral_with_error(spec, x_inside, lam, contour)
    v_out, err_out = mb_integral_with_error(spec, x_outside, lam, contour)
    right = right_residue_sum(spec, x_inside, lam)
    left = left_residue_sum(spec, x_outside, lam)
    return ResidueReport(
        label=label_plus,
        x_inside=complex(x_inside),
        x_outside=complex(x_outside),
        residual_inside=abs(v_in - right),
        residual_outside=abs(v_out + left),
        quad_error_inside=err_in,
        quad_error_outside=err_out,
    )


# ---------------------------------------------------------------------------
# numerical oracle for the closed-form coefficients


def _unnormalized_minus_series(wc, label_minus, d_minus, x, lam, k_max=200, rel_tol=1e-14):
    """Sum over k of x^{-k} / prod Gamma(1 + u_j(d-)/2pi i + D_j d- - k D_j e)."""
    git = wc.git
    u = restrict_u(git, label_minus.delta)
    k = np.arange(k_max + 1)
    log_terms = np.zeros(k_max + 1, dtype=complex)
    live = np.ones(k_max + 1, dtype=bool)
    for j in range(git.m):
        gamma_j = u[j](lam) / TWO_PI_I
        d_j = vdot(git.D[j], d_minus)
        if gamma_j == 0 and d_j.denominator == 1:
            # an exact reciprocal Gamma at a nonpositive integer kills the term
            a = int(d_j) + 1 - k * wc.pair_e(j)
            live &= a > 0
            log_terms -= log_gamma(np.where(a > 0, a, 1).astype(float))
        else:
            log_terms -= log_gamma(1 + gamma_j + complex(d_j) - k * wc.pair_e(j))
    terms = np.exp(log_terms[live]) * (1.0 / complex(x)) ** k[live]
    return _sum_until_small(terms, rel_tol)


def continuation_numeric(wc, pair, x, lam, contour=ContourSpec()):
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
    lift_minus = compatible_minus_lift(wc, label_plus, label_minus)
    # d_minus = d_plus + ((D_{j-}.d_plus - l') / l) e with [d_minus] = f_minus
    d_plus_pair = spec.d[j_minus]
    residue_class = None
    for cand in range(l):
        q = (d_plus_pair - cand) / l
        d_minus = tuple(a + q * b for a, b in zip(spec.d_plus, ratvec(wc.e)))
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
            prefactor *= cmath.sin(math.pi * (-betas[j] - complex(spec.d[j]))) / math.pi

    xi, log_xi = _split_xi(x, w)
    log_ye = log_xi + 1j * math.pi * w
    p0 = (betas[j_minus] + complex(d_plus_pair) - residue_class) / l
    power = cmath.exp(-p0 * log_ye)

    series = _unnormalized_minus_series(wc, label_minus, d_minus_vec, x, lam)
    return prefactor * group * power / series
