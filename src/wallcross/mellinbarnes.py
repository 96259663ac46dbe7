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
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .gitfan import _idot, minus_lift_numerators, next_to_cells
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
from .lattice import cleared, ratvec
from .localization import restrict_u


class ContourTooClose(ValueError):
    """No admissible abscissa: negative, clear of the poles by the clearance."""


class NonConvergent(ValueError):
    """The argument of the wall monomial is outside the convergence sector."""


class IncompatibleLifts(ValueError):
    """Sector lifts do not differ by a rational multiple of the wall normal."""


# ---------------------------------------------------------------------------
# closed-form connection coefficients


@dataclass(frozen=True)
class ContinuationCoefficient:
    """Connection coefficient between a next-to pair of fixed points."""

    j_minus: int
    l: int
    w: int
    lift_plus: tuple
    lift_minus: tuple
    u_form: object  # u_{j-}(delta_plus) as a LinearForm
    shift: Fraction  # D_{j-} . (f_plus - f_minus)
    ratio_js: tuple  # other negative-pairing indices
    # per j in ratio_js: (u_j(delta_plus), D_j . f_plus, u_j(delta_minus), D_j . f_minus)
    ratio_terms: tuple
    # the complex constants of value: -i pi w and the shift
    _phase: complex = field(init=False, repr=False, compare=False)
    _shift: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_phase", -1j * math.pi * self.w)
        object.__setattr__(self, "_shift", complex(self.shift))

    def value(self, lam):
        """The coefficient at the torus parameters lam."""
        X = self.u_form(lam) / TWO_PI_I + self._shift
        val = cmath.exp(self._phase * X / self.l)
        if self.l > 1:
            val *= cmath.sin(math.pi * X) / (self.l * cmath.sin(math.pi * X / self.l))
        for u_plus, c_plus, u_minus, c_minus in self.ratio_terms:
            num = u_plus(lam) / TWO_PI_I + c_plus
            den = u_minus(lam) / TWO_PI_I + c_minus
            val *= cmath.sin(math.pi * num) / cmath.sin(math.pi * den)
        return val

    def describe(self):
        return (
            "exp(-pi*i*%d/%d * X) * sin(pi X)/(%d sin(pi X/%d)) * prod over j in %s"
            " of sin(pi(u_j(d+)/2pi i + D_j f+))/sin(pi(u_j(d-)/2pi i + D_j f-));"
            " X = (%s)/(2 pi i) + %s"
            % (self.w, self.l, self.l, self.l, list(self.ratio_js), self.u_form, self.shift)
        )


def continuation_coefficient(wc, pair, lift_plus=None, lift_minus=None):
    """Closed-form connection coefficient for a next-to pair of labels.

    Lifts default to the canonical plus representative and the compatible
    minus lift; every lift must represent its sector class, and the two must
    differ by a rational multiple of the wall normal.

    Default and supplied lifts take one route, on integer numerators: a lift
    n / s represents the sector num / den when n mod s over s is num / den,
    and D_j . lift is the integer D_j . n over s.
    """
    label_plus, label_minus = pair
    sec_plus, sec_minus = label_plus.sector, label_minus.sector
    j_minus = next(i for i in label_minus.delta if i not in label_plus.delta)
    l = -wc.pair_e(j_minus)
    assert l > 0
    ratio_js = tuple(j for j in wc.M_minus if j != j_minus)
    plus = (sec_plus.den, sec_plus.num) if lift_plus is None else cleared(lift_plus)
    minus = (minus_lift_numerators(wc, sec_plus, sec_minus) if lift_minus is None
             else cleared(lift_minus))
    pairings = []
    for (s, n), sec in ((plus, sec_plus), (minus, sec_minus)):
        # the sector's f = num / den is the fractional part of every lift of it
        if any((x % s) * sec.den != y * s for x, y in zip(n, sec.num)):
            raise IncompatibleLifts("lift does not represent the sector class")
        pairings.append({j: _idot(wc.git.D[j], n) for j in (j_minus,) + ratio_js})
    (s_plus, n_plus), (s_minus, n_minus) = plus, minus
    c_plus, c_minus = pairings
    v, e = [a * s_minus - b * s_plus for a, b in zip(n_plus, n_minus)], wc.e
    if any(v[i] * e[k] != v[k] * e[i] for i, k in itertools.combinations(range(len(e)), 2)):
        raise IncompatibleLifts("lifts do not differ by a multiple of the wall normal")
    u_plus = restrict_u(wc.git, label_plus.delta)
    u_minus = restrict_u(wc.git, label_minus.delta)
    # int / int is the correctly rounded quotient, as float(Fraction) is
    ratio_terms = tuple((u_plus[j], complex(c_plus[j] / s_plus),
                         u_minus[j], complex(c_minus[j] / s_minus)) for j in ratio_js)
    return ContinuationCoefficient(
        j_minus=j_minus,
        l=l,
        w=w_constant(wc),
        lift_plus=label_plus.f if lift_plus is None else ratvec(lift_plus),
        lift_minus=(tuple(Fraction(x, s_minus) for x in n_minus) if lift_minus is None
                    else ratvec(lift_minus)),
        u_form=u_plus[j_minus],
        shift=Fraction(c_plus[j_minus] * s_minus - c_minus[j_minus] * s_plus, s_plus * s_minus),
        ratio_js=ratio_js,
        ratio_terms=ratio_terms,
    )


def lift_invariance_check(wc, pair, lams, tol=1e-12):
    """Whether the coefficient keeps its value at each sample in lams when
    the plus lift is shifted by the wall normal, the minus lift against it,
    or both lifts by an integer vector; one bool per sample.
    """
    base = continuation_coefficient(wc, pair)
    f_plus, f_minus = base.lift_plus, base.lift_minus
    variants = [continuation_coefficient(wc, pair, lp, lm) for lp, lm in (
        (tuple(a + b for a, b in zip(f_plus, wc.e)), f_minus),
        (f_plus, tuple(a - b for a, b in zip(f_minus, wc.e))),
        ((f_plus[0] + 1,) + f_plus[1:], (f_minus[0] + 1,) + f_minus[1:]),
    )]
    out = []
    for lam in lams:
        v0 = base.value(lam)
        out.append(all(abs(v.value(lam) - v0) <= tol * max(1.0, abs(v0)) for v in variants))
    return out


# ---------------------------------------------------------------------------
# the continuation matrix


@dataclass(frozen=True)
class ContinuationMatrix:
    rows: tuple  # plus labels
    cols: tuple  # minus labels
    # (i, j) -> "identity" | "coefficient", row-major; an absent cell is zero
    kinds: dict
    coefficients: dict  # (i, j) -> ContinuationCoefficient for coefficient entries


def continuation_matrix(wc):
    """Block transformation of fixed-point restrictions across the wall.

    Rows over plus fixed points, columns over minus fixed points, cells by
    position: identity on common anticones, a connection coefficient on
    next-to pairs, zero elsewhere.  Only the identity and coefficient cells
    are stored, in row-major order; every absent cell is zero.
    """
    rows, cols = wc.labels_plus, wc.labels_minus
    # a sector's (num, den) is canonical, so it matches labels exactly
    col_at = {(lm.delta, lm.sector.num, lm.sector.den): j for j, lm in enumerate(cols)}
    kinds = {}
    for i, lp in enumerate(rows):
        j = col_at.get((lp.delta, lp.sector.num, lp.sector.den))
        if j is not None:
            kinds[(i, j)] = "identity"
    coeffs = {}
    for cell in next_to_cells(wc):
        kinds[cell] = "coefficient"
        coeffs[cell] = continuation_coefficient(wc, (rows[cell[0]], cols[cell[1]]))
    return ContinuationMatrix(rows=rows, cols=cols, kinds=dict(sorted(kinds.items())),
                              coefficients=coeffs)


# ---------------------------------------------------------------------------
# the Barnes integral


@dataclass(frozen=True)
class ContourSpec:
    abscissa: float = None  # auto-scan when None
    t_max: float = 40.0  # the longest cut of the line
    clearance: float = 1e-3


def _log_gamma_block(spec, betas, s, skip=None, factorial_of=None):
    """Sum of the integrand's log-Gamma factors at s, a scalar or an array,
    leaving out the factor of index skip.  Given an array factorial_of, it
    returns (log Gamma(factorial_of), the sum).

    All arguments go into one log_gamma call.  A factor with e_j = 0 has
    the argument 1 + beta_j + d_j at every s, so it is evaluated once; the
    factors are then added in factor order."""
    head = [] if factorial_of is None else [factorial_of]
    numerators, args = [], list(head)
    for j in range(len(spec.d)):
        if j == skip:
            continue
        ej = spec.e[j]
        base = betas[j] + complex(spec.d[j])
        numerators.append(ej < 0)
        args.append(-base - s * ej if ej < 0 else 1 + base + s * ej if ej else 1 + base)
    values = log_gamma(np.concatenate([np.ravel(a) for a in args]))
    rows, start = [], 0
    for arg in args:
        rows.append(values[start:start + np.size(arg)].reshape(np.shape(arg)))
        start += np.size(arg)
    acc = 0j
    for numerator, row in zip(numerators, rows[len(head):]):
        acc = acc + row if numerator else acc - row
    return acc if factorial_of is None else (rows[0], acc)


def _pole_scan(spec, betas, re_min, re_max):
    """The non-integer poles (j, n, p) with real part in [re_min, re_max],
    by direction j and then by n."""
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


def _separation(pts):
    return min([abs(p - q) for p, q in itertools.combinations(pts, 2)]
               + [abs(p - round(p.real)) for p in pts], default=float("inf"))


def _gaps(sigmas, reals):
    """Each abscissa's distance from the nearest of the pole real parts and
    from the nearest integer."""
    sigmas = np.asarray(sigmas, dtype=float)
    to_poles = np.abs(sigmas[:, None] - np.asarray(reals, dtype=float)).min(axis=1, initial=np.inf)
    return np.minimum(to_poles, np.abs(sigmas - np.round(sigmas)))


def _abscissa(reals, contour):
    """The abscissa and its gap, the distance from the nearest of the pole
    real parts and from the nearest integer: the given abscissa, or the first
    of the 41 in [-0.45, -0.05] with the largest gap.  The gap must reach
    the contour's clearance, and the pole at s = 0 lie right of the line."""
    sigma = contour.abscissa
    if sigma is None:
        candidates = -0.45 + 0.01 * np.arange(41)
        gaps = _gaps(candidates, reals)
        best = int(np.argmax(gaps))
        sigma, gap = float(candidates[best]), float(gaps[best])
    elif not sigma < 0:
        raise ContourTooClose("abscissa %g is not negative" % sigma)
    else:
        gap = float(_gaps([sigma], reals)[0])
    if gap < contour.clearance:
        raise ContourTooClose("abscissa %g clears the poles by only %g" % (sigma, gap))
    return sigma, gap


def _split_xi(spec, x):
    """The rotated variable and its principal logarithm.

    The base of the s-power is the wall monomial rotated by the path phase
    pi w, w = -1 + the sum of the positive pairings with e; convergence needs
    its argument strictly inside (-pi, pi).
    """
    w = -1 + sum(e for e in spec.e if e > 0)
    xi = complex(x) * cmath.exp(-1j * math.pi * w)
    if xi == 0:
        raise NonConvergent("wall monomial vanishes")
    if abs(cmath.phase(xi)) > math.pi * (1 - 1e-12):
        raise NonConvergent("argument of the wall monomial is outside the sector")
    return xi, cmath.log(xi)


def _interesting_residue(spec, betas, log_xi, j_minus, n):
    """Residues of the integrand at the n-th poles of one negative direction,
    for an integer or an integer array n; a column of log xi gives one row
    of residues per point."""
    l = -spec.e[j_minus]
    base = betas[j_minus] + complex(spec.d[j_minus])
    p = (base - n) / l
    log_factorial, block = _log_gamma_block(spec, betas, p, j_minus, n + 1.0)
    log_term = (-log_factorial - math.log(l) + LOG_PI - log_sin_pi(p) + p * log_xi + block)
    return np.where(n % 2, -1.0, 1.0) * np.exp(log_term)


def quad(f, a, b, h):
    """Trapezoid rule for f over [a, b] with a step of at most h, and an
    estimate of its error.

    f is called once, on the array of nodes, and returns the values on them,
    one row per integrand; the rule sums along the last axis.  The number of
    steps is even, so the rule with twice the step uses every other node;
    the difference of the two rules is the error estimate.
    """
    n = 2 * math.ceil((b - a) / (2 * h))
    y = f(np.linspace(a, b, n + 1))
    ends = 0.5 * (y[..., 0] + y[..., -1])
    fine = (b - a) / n * (y.sum(axis=-1) - ends)
    coarse = 2 * (b - a) / n * (y[..., ::2].sum(axis=-1) - ends)
    return fine, np.abs(fine - coarse)


def mb_integral(spec, x, lam, contour=ContourSpec()):
    value, _err = mb_integral_with_error(spec, x, lam, contour)
    return value


def mb_integral_with_error(spec, x, lam, contour=ContourSpec()):
    """Barnes integral along the separating contour, as a vertical line plus
    residue corrections, at one point x or at each of a sequence of points.

    The contour must keep the nonnegative integer poles on its right and all
    other poles on its left.  Non-integer poles whose real part exceeds the
    chosen abscissa are accounted for by adding their residues to the
    straight-line integral, which amounts to bending the line around them.
    The normalization makes the value equal the sum of right residues inside
    the degeneration radius and minus the sum of left residues outside it.

    The integrand is exp(G(s) + s log xi); G, the pole scan, the abscissa
    and the Gamma factors of the residues do not depend on x, so they are
    computed once for all points.  The line is integrated by the
    trapezoid rule with step gap / 8, where gap is the abscissa's distance
    from the nearest pole real part or integer; the integrand is analytic in
    a strip of that half-width, so the rule converges exponentially.  It is
    cut at +-T.  A probe of G on the integers |t| <= t_max gives each point
    the largest |t| at which |integrand| still reaches 2^-60 of its sum over
    the probes; T is 1 past the largest of these, at least 8 and at most
    t_max.  Beyond the imaginary parts of the Gamma arguments |integrand|
    falls like |t|^a exp(-(pi - |arg xi|) |t|), so it stays below that
    level past T.  The error is the difference from the rule with twice the
    step plus a bound on the cut tails from the integrand at +-T.

    Returns (value, error): complex and float for a scalar x, arrays over
    the points for a sequence.
    """
    scalar = np.ndim(x) == 0
    splits = [_split_xi(spec, xk) for xk in np.atleast_1d(x)]
    log_xi = np.array([log for _xi, log in splits])[:, None]
    decay = np.array([math.pi - abs(cmath.phase(xi)) for xi, _log in splits])
    betas = spec.betas(lam)
    re_min = -3.0 if contour.abscissa is None else min(-3.0, contour.abscissa)
    poles = _pole_scan(spec, betas, re_min, float("inf"))
    window = [p for _j, _n, p in poles if -3.0 <= p.real <= 2.0]
    if _separation(window) < contour.clearance:
        raise PoleCollision("left poles are closer than the clearance radius")
    sigma, gap = _abscissa([p.real for p in window], contour)

    def G(t):
        s = sigma + 1j * t
        return s, LOG_PI - log_sin_pi(s) + _log_gamma_block(spec, betas, s)

    probe = np.arange(-math.floor(contour.t_max), math.floor(contour.t_max) + 1)
    s, g = G(probe)
    log_abs = (g + s * log_xi).real
    weight = np.exp(log_abs - log_abs.max(axis=1, keepdims=True))
    heavy = weight >= 2.0 ** -60 * weight.sum(axis=1, keepdims=True)
    cut = min(contour.t_max, max(8.0, 1.0 + np.abs(probe)[heavy.any(axis=0)].max()))

    rows = []  # the integrand on the nodes, whose ends bound the tails

    def F(t):
        s, g = G(t)
        rows.append(np.exp(g + s * log_xi))
        return rows[-1]

    integral, err = quad(F, -cut, cut, gap / 8)
    tail = (np.abs(rows[0][:, -1]) + np.abs(rows[0][:, 0])) / np.maximum(decay, 1e-9)
    value = -integral / (2 * math.pi)

    right = [(j, n) for j, n, p in poles if p.real > sigma]
    for j, group in itertools.groupby(right, key=lambda jn: jn[0]):
        n = np.array([n for _j, n in group])
        for residue in _interesting_residue(spec, betas, log_xi, j, n).T:
            value -= residue
    err = (err + tail) / (2 * math.pi)
    if scalar:
        return complex(value[0]), float(err[0])
    return value, err


# ---------------------------------------------------------------------------
# residue sums


# terms per class that the residue sums evaluate at a time; at verify mb's
# points no class of the bundled or benchmark crossings reads more than 27
RESIDUE_CHUNK = 32

# terms per class that the right and the left residue sums read at most
RIGHT_TERMS = 81
LEFT_TERMS = 201


def _sum_until_small(terms):
    """Sum of the terms in order, stopped after the third term in a row below
    1e-14 times max(1, |partial sum|), and whether it stopped there; without
    such a run it is the sum of all the terms."""
    totals = np.cumsum(terms)
    small = np.abs(terms) < 1e-14 * np.maximum(1.0, np.abs(totals))
    stops = np.flatnonzero(small[:-2] & small[1:-1] & small[2:])
    if len(stops):
        return complex(totals[stops[0] + 2]), True
    return complex(totals[-1]), False


def _sums_in_chunks(terms_at, classes, length):
    """_sum_until_small of the first `length` terms of each class: per
    class, the sum and whether the rule stopped it.

    terms_at(open, k) gives the terms at the indices k of each class in
    open, one row per class.  The terms come RESIDUE_CHUNK indices at a
    time, for all the classes whose sum has not stopped yet.  The rule reads
    no term past where it stops, so each sum is that of all `length` terms.
    """
    terms = {c: np.empty(0, dtype=complex) for c in classes}
    sums = {}
    for start in range(0, length, RESIDUE_CHUNK):
        open_ = [c for c in classes if c not in sums]
        if not open_:
            break
        k = np.arange(start, min(start + RESIDUE_CHUNK, length))
        for c, row in zip(open_, terms_at(open_, k)):
            terms[c] = np.concatenate([terms[c], row])
            total, stopped = _sum_until_small(terms[c])
            if stopped or k[-1] == length - 1:
                sums[c] = total, stopped
    return [sums[c] for c in classes]


def right_residue_sum(spec, x, lam):
    """Sum of the residues at the nonnegative integers k = 0, 1, ..., 80,
    by _sum_until_small, evaluated in chunks (_sums_in_chunks); converges
    inside the degeneration radius.  Returns the sum and whether the stop
    rule fired, False where the sum is cut at its RIGHT_TERMS terms."""
    xi, log_xi = _split_xi(spec, x)
    betas = spec.betas(lam)

    def terms_at(_open, k):
        return [np.where(k % 2, -1.0, 1.0) * np.exp(
            _log_gamma_block(spec, betas, k.astype(complex)) + k * log_xi)]

    return _sums_in_chunks(terms_at, [0], RIGHT_TERMS)[0]


def left_residue_sum(spec, x, lam):
    """Sum of all residues left of the contour (sign unflipped).

    Per negative direction of pairing -l, each congruence class n = k*l + c,
    k = 0, 1, ..., 200, the contribution of a single next-to partner to the
    continued series, is summed on its own by _sum_until_small.  The
    residues are evaluated in chunks of k (_sums_in_chunks): one
    _interesting_residue call per chunk holds every class of the direction
    whose sum has not stopped yet.  Returns the sum and whether the stop
    rule fired for every class, False where some class is cut at its
    LEFT_TERMS terms.
    """
    _xi, log_xi = _split_xi(spec, x)
    betas = spec.betas(lam)
    total, stopped = 0j, True
    for j in range(len(spec.d)):
        l = -spec.e[j]
        if l <= 0:
            continue

        def terms_at(open_, k):
            n = np.concatenate([k * l + c for c in open_])
            return np.split(_interesting_residue(spec, betas, log_xi, j, n), len(open_))

        for class_sum, class_stopped in _sums_in_chunks(terms_at, range(l), LEFT_TERMS):
            total += class_sum
            stopped = stopped and class_stopped
    return total, stopped


@dataclass(frozen=True)
class ResidueReport:
    residual_inside: float
    residual_outside: float
    # whether the right (inside) or the left (outside) residue sum was cut
    # at its last term without its stop rule firing
    cut_inside: bool
    cut_outside: bool


def verify_residue_identity(wc, label_plus, x_inside, x_outside, lam, contour=ContourSpec()):
    """Compare the Barnes integral against both residue expansions.

    Inside the degeneration radius the integral equals the right residue
    sum; outside it equals minus the left residue sum.  ``lam`` is one
    sample of the torus parameters, or a sequence of samples with one report
    each; the inner spec does not depend on the sample, so it is built once.
    """
    c = abs(float(conifold_point(wc)))
    if not (abs(x_inside) < c < abs(x_outside)):
        raise ValueError("need |x_inside| < |conifold| < |x_outside|")
    spec = make_inner_spec(wc, label_plus)
    reports = []
    for sample in (lam if np.ndim(lam) == 2 else [lam]):
        (v_in, v_out), _err = mb_integral_with_error(spec, (x_inside, x_outside), sample, contour)
        right, right_stopped = right_residue_sum(spec, x_inside, sample)
        left, left_stopped = left_residue_sum(spec, x_outside, sample)
        reports.append(ResidueReport(
            residual_inside=abs(v_in - right),
            residual_outside=abs(v_out + left),
            cut_inside=not right_stopped,
            cut_outside=not left_stopped,
        ))
    return reports if np.ndim(lam) == 2 else reports[0]
