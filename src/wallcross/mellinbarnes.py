"""Analytic continuation of inner series by a vertical-line Barnes integral.

The inner series at a fixed point across the wall is represented as a
contour integral of Gamma-function ratios along a vertical line.  Closing
the contour to the right recovers the series; closing to the left produces
the continued expansion, whose residue classes group into closed-form
connection coefficients between next-to fixed points.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .gitfan import _idot, minus_lift_numerators, next_to_cells, ratio_text
from .hypergeom import (
    LOG_PI,
    TWO_PI_I,
    PoleCollision,
    _base_rows,
    _complex_product,
    _complex_quotient,
    conifold_point,
    lambda_matrix,
    log_gamma,
    log_sin_pi,
    make_inner_spec,
    stack_bases,
    stack_column,
    w_constant,
)
from .lattice import cleared
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
    """Connection coefficient between a next-to pair of fixed points.  A lift
    is (s, n, c), n / s with c[j] = D_j . n; the shift is (num, den), num / den."""

    j_minus: int
    l: int
    w: int
    lift_plus: tuple
    lift_minus: tuple
    u_form: object  # u_{j-}(delta_plus) as a LinearForm
    shift: tuple  # D_{j-} . (f_plus - f_minus)
    ratio_js: tuple  # other negative-pairing indices
    # per j in ratio_js: (u_j(delta_plus), D_j . f_plus, u_j(delta_minus), D_j . f_minus)
    ratio_terms: tuple

    def value(self, lams, *others):
        """The coefficient at every column of the (m, S) array lams, a row,
        then a row for each of ``others``: one stack of coefficient_values."""
        return coefficient_values((self,) + others, lams)

    def describe(self):
        return (
            "exp(-pi*i*%d/%d * X) * sin(pi X)/(%d sin(pi X/%d)) * prod over j in %s"
            " of sin(pi(u_j(d+)/2pi i + D_j f+))/sin(pi(u_j(d-)/2pi i + D_j f-));"
            " X = (%s)/(2 pi i) + %s"
            % (self.w, self.l, self.l, self.l, list(self.ratio_js), self.u_form, ratio_text(*self.shift))
        )


# the most (row, sample) entries that coefficient_values evaluates at once
COEFFICIENT_BLOCK = 1 << 13


def _complex(pair):
    """The complex array of a (real, imaginary) pair of float arrays."""
    out = np.empty(pair[0].shape, dtype=complex)
    out.real, out.imag = pair
    return out


def coefficient_values(coefficients, lams):
    """Every coefficient at every column of the (m, S) array lams, a
    (len(coefficients), S) complex array.  The coefficients must have
    equally many sine ratios, as the cells of one crossing do.

    Every argument the closed form takes a sine of, X = u_{j-}(lam) / 2 pi i
    + shift and the two of each ratio, is a row of one stack, and so is every
    sine, so a stack costs a fixed number of numpy calls whatever its size.
    Each step is the scalar complex arithmetic of the closed form: a form
    sums its terms in index order, as LinearForm does; numpy's complex exp
    and sin give cmath's values; products and quotients take CPython's
    formulas on (real, imaginary) pairs.  So every value is bit for bit the
    scalar evaluation (tests/helpers.py::oracle_coefficient_value).  A
    stack of more than COEFFICIENT_BLOCK (row, sample) entries is evaluated
    in blocks of cells, which bounds its memory and changes no bit."""
    cells, (m, samples) = len(coefficients), lams.shape
    ratios = len(coefficients[0].ratio_terms) if cells else 0
    step = max(1, COEFFICIENT_BLOCK // ((1 + 2 * ratios) * samples or 1))
    if cells > step:
        return np.concatenate([coefficient_values(coefficients[k:k + step], lams) for k in range(0, cells, step)])
    # the rows: every cell's X, then each ratio's numerators in turn, then
    # its denominators, each a form and a constant
    rows = [(c.u_form, c.shift[0] / c.shift[1]) for c in coefficients]
    for k in (0, 2):
        rows += [(c.ratio_terms[r][k], c.ratio_terms[r][k + 1].real) for r in range(ratios) for c in coefficients]
    n, top = len(rows), cells * (1 + ratios)
    forms = np.array([form.floats for form, _ in rows], dtype=float).reshape(n, m).T[:, :, None]
    # u(lam) summed term by term in index order, as LinearForm sums it
    parts = np.concatenate([lams.real, lams.imag], axis=1)
    u = forms[0] * parts[0]
    for i in range(1, m):
        u = u + forms[i] * parts[i]
    # CPython's quotient by 2 pi i = (0, 2 pi) is (Im u, -Re u) / 2 pi, bit
    # for bit once the constant is added
    args = np.empty((n, samples), dtype=complex)
    args.real = u[:, samples:] / TWO_PI_I.imag + np.array([c for _, c in rows])[:, None]
    args.imag = (0.0 - u[:, :samples]) / TWO_PI_I.imag
    l = np.array([c.l for c in coefficients], dtype=float)[:, None]

    def over_l(a):
        """a / l by CPython's quotient by the complex (l, 0)."""
        return (a[0] + a[1] * 0.0) / l, (a[1] - a[0] * 0.0) / l

    # the sines of pi times every argument, and of pi X / l; a real factor
    # such as pi scales each part
    turns = np.empty((n + cells, samples), dtype=complex)
    turns[:n] = (args.view(float) * math.pi).view(complex)
    turns.real[n:], turns.imag[n:] = over_l((turns.real[:cells], turns.imag[:cells]))
    sines = np.sin(turns)
    phase = np.array([-1j * math.pi * c.w for c in coefficients])[:, None]
    val = np.exp(_complex(over_l(_complex_product((phase.real, phase.imag),
                                                  (args.real[:cells], args.imag[:cells])))))
    val = val.real, val.imag
    # sin(pi X) / (l sin(pi X / l)), then each ratio's sin(pi num) / sin(pi den)
    below = np.empty((top, samples), dtype=complex)
    below.real[:cells], below.imag[:cells] = _complex_product((l, 0.0), (sines.real[n:], sines.imag[n:]))
    below[cells:] = sines[top:n]
    quotients = _complex_quotient((sines.real[:top], sines.imag[:top]), (below.real, below.imag))
    sinc = _complex_product(val, [q[:cells] for q in quotients])
    val = [np.where(l > 1, a, b) for a, b in zip(sinc, val)]
    for r in range(1, ratios + 1):
        val = _complex_product(val, [q[r * cells:(r + 1) * cells] for q in quotients])
    return _complex(val)


def _anticone_pair(wc, delta_plus, delta_minus):
    """(j_minus, l, ratio_js, u_plus, u_minus): a coefficient's anticone data."""
    j_minus = next(i for i in delta_minus if i not in delta_plus)
    l = -wc.pair_e(j_minus)
    assert l > 0
    return (j_minus, l, tuple(j for j in wc.M_minus if j != j_minus),
            restrict_u(wc.git, delta_plus), restrict_u(wc.git, delta_minus))


def _coefficient(wc, w, anticones, pair, plus=None, minus=None):
    """The coefficient of a next-to pair from its anticone data and, per side,
    an integer lift (s, n, c) as ContinuationCoefficient holds it.  The lifts
    default to the plus sector and minus_lift_numerators' f_plus + (a / s) e,
    pairings read from the sectors'.  Each must represent its sector; they
    differ by a multiple of e."""
    (j_minus, l, ratio_js, u_plus, u_minus), (sp, sm) = anticones, (pair[0].sector, pair[1].sector)
    plus = plus or (sp.den, sp.num, sp.pairings)
    if minus is None:
        s, n, a = minus_lift_numerators(wc, sp, sm)
        minus = (s, n, tuple(s // sp.den * x + a * y for x, y in zip(sp.pairings, wc.pairings)))
    for sec, (s, n, _c) in ((sp, plus), (sm, minus)):
        # the sector's f = num / den is the fractional part of every lift of it
        if any((x % s) * sec.den != y * s for x, y in zip(n, sec.num)):
            raise IncompatibleLifts("lift does not represent the sector class")
    (s_plus, n_plus, c_plus), (s_minus, n_minus, c_minus) = plus, minus
    v, e = [a * s_minus - b * s_plus for a, b in zip(n_plus, n_minus)], wc.e
    if any(v[i] * e[k] != v[k] * e[i] for i, k in itertools.combinations(range(len(e)), 2)):
        raise IncompatibleLifts("lifts do not differ by a multiple of the wall normal")
    ratio_terms = tuple((u_plus[j], complex(c_plus[j] / s_plus),
                         u_minus[j], complex(c_minus[j] / s_minus)) for j in ratio_js)
    return ContinuationCoefficient(
        j_minus=j_minus,
        l=l,
        w=w,
        lift_plus=plus,
        lift_minus=minus,
        u_form=u_plus[j_minus],
        shift=(c_plus[j_minus] * s_minus - c_minus[j_minus] * s_plus, s_plus * s_minus),
        ratio_js=ratio_js,
        ratio_terms=ratio_terms,
    )


def continuation_coefficient(wc, pair, lift_plus=None, lift_minus=None):
    """Closed-form connection coefficient for a next-to pair of labels.

    Lifts, rational vectors, default to the canonical plus representative
    and the compatible minus lift; every lift must represent its sector
    class, and the two must differ by a rational multiple of the wall normal.
    """
    def supplied(lift):
        if lift is not None:
            s, n = cleared(lift)
            return s, n, tuple(_idot(row, n) for row in wc.git.D)

    anticones = _anticone_pair(wc, pair[0].delta, pair[1].delta)
    return _coefficient(wc, w_constant(wc), anticones, pair, supplied(lift_plus), supplied(lift_minus))


def _lift_variants(wc, w, pair):
    """The coefficient of a next-to pair at its default lifts, then with the
    plus lift shifted by the wall normal, the minus lift against it, and
    both lifts by an integer vector."""
    def moved(lift, v):
        """The integer lift (s, n, c) plus the integer vector v."""
        s, n, c = lift
        return (s, tuple(x + s * y for x, y in zip(n, v)),
                tuple(x + s * _idot(row, v) for x, row in zip(c, wc.git.D)))

    anticones = _anticone_pair(wc, pair[0].delta, pair[1].delta)
    base = _coefficient(wc, w, anticones, pair)
    f_plus, f_minus, unit = base.lift_plus, base.lift_minus, (1,) + (0,) * (wc.git.r - 1)
    return [base] + [_coefficient(wc, w, anticones, pair, lp, lm) for lp, lm in (
        (moved(f_plus, wc.e), f_minus),
        (f_plus, moved(f_minus, [-x for x in wc.e])),
        (moved(f_plus, unit), moved(f_minus, unit)),
    )]


def lift_invariance_check(wc, pair, lams, tol=1e-12):
    """Whether the coefficient keeps its value at each sample in lams when
    the plus lift is shifted by the wall normal, the minus lift against it,
    or both lifts by an integer vector; one bool per sample.
    """
    return lift_invariance_checks(wc, [pair], lams, tol)[0]


def lift_invariance_checks(wc, pairs, lams, tol=1e-12):
    """lift_invariance_check of every pair in pairs, a list per pair, with
    the four coefficients of every pair evaluated as one stack."""
    if not pairs:
        return []
    w = w_constant(wc)
    stack = [coeff for pair in pairs for coeff in _lift_variants(wc, w, pair)]
    # the stack goes through ContinuationCoefficient.value, whose calls
    # bench/spans.py counts
    values = stack[0].value(lambda_matrix(lams), *stack[1:]).reshape(len(pairs), 4, len(lams))
    # abs and max as Python takes them of complex scalars: hypot, and 1.0
    # unless the value is larger
    size = np.hypot(values[:, 0].real, values[:, 0].imag)
    drift = np.hypot(values[:, 1:].real - values[:, :1].real, values[:, 1:].imag - values[:, :1].imag)
    return (drift <= tol * np.where(size > 1.0, size, 1.0)[:, None]).all(axis=1).tolist()


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
    cells, w = next_to_cells(wc), w_constant(wc)
    anticones = {key: _anticone_pair(wc, *key) for key in {(rows[p].delta, cols[q].delta) for p, q in cells}}
    coeffs = {(p, q): _coefficient(wc, w, anticones[rows[p].delta, cols[q].delta], (rows[p], cols[q]))
              for p, q in cells}
    kinds.update(dict.fromkeys(coeffs, "coefficient"))
    return ContinuationMatrix(rows=rows, cols=cols, kinds=dict(sorted(kinds.items())),
                              coefficients=coeffs)


# ---------------------------------------------------------------------------
# the Barnes integral


@dataclass(frozen=True)
class ContourSpec:
    abscissa: float = None  # auto-scan when None
    t_max: float = 40.0  # the longest cut of the line
    clearance: float = 1e-3


# the trapezoid step along the line is 1 / STEPS_PER_UNIT; every pole within
# 1 of the line is corrected, so the rule's own error is about
# exp(-2 pi STEPS_PER_UNIT), 4e-17
STEPS_PER_UNIT = 6

# the Barnes line is evaluated outward from t = 0: first on |t| <= LINE_FIRST,
# the shortest cut, then LINE_CHUNK more units at each end at a time
LINE_FIRST = 8
LINE_CHUNK = 4


def _log_gamma_block(e, bases, s, skip=None, factorial_of=None):
    """Sum of the integrand's log-Gamma factors at s, a scalar or an array,
    leaving out the factor of index skip.  Given an array factorial_of, it
    returns (log Gamma(factorial_of), the sum).  Factor j has pairing e[j]
    and base bases[j], beta_j + d_j: a scalar, or a column of one per stack
    column that broadcasts against s.

    All arguments go into one log_gamma call.  A factor with e_j = 0 has
    the argument 1 + beta_j + d_j at every s, so it is evaluated once; the
    factors are then added in factor order."""
    head = [] if factorial_of is None else [factorial_of]
    numerators, args = [], list(head)
    for j, (ej, base) in enumerate(zip(e, bases)):
        if j == skip:
            continue
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


def _point(z):
    """An integer or a pole, as an error message names it."""
    return "the integer %d" % z if isinstance(z, int) else "the pole %.6g%+.6gj" % (z.real, z.imag)


def _check_poles(x, stage, name, at):
    """x, a block of logarithms or of absolute values, unchanged: one row per
    stack column, or per class of one, along the first axis, and nodes or
    residue indices along the last.  A zero of a reciprocal Gamma is a value,
    -inf or 0; a Gamma pole makes an entry +inf, or NaN where it meets a
    zero.  The first such entry, in row-major order, raises PoleCollision
    with the stage, name(r) of its row r and at(r, i) of its index i."""
    bad = np.isnan(x) | (x.real == np.inf)
    if bad.any():
        r, *_between, i = np.unravel_index(np.argmax(bad), bad.shape)
        raise PoleCollision("%s, %s: a Gamma pole at %s" % (stage, name(r), at(r, i)))
    return x


def _line_setup(e, bases, contour, name):
    """(sigma, counts): the abscissa of each column, row c of bases holding
    its beta_j + d_j, and per direction j the count of the poles n < counts[j]
    that lie right of sigma - 1 in some column.

    The poles (beta_j + d_j - n) / l, l = -e_j, with real part from re_min
    form one table over all columns, by j and then by n, real and imaginary
    parts divided apart as Python's complex / int divides them.  A column's
    window, its poles up to real part 2, must keep its nearest two poles, or
    a pole and its nearest integer, the clearance apart.  The abscissa is
    the given one, which must be negative, or the first of the 41 in
    [-0.45, -0.05] with the largest gap, the distance from the window's real
    parts and the integers; the gap must reach the clearance.  The first
    failing column raises, its separation before its abscissa, with name(c)
    before a text that names the poles or the integer the distance is from.
    """
    re_min = -3.0 if contour.abscissa is None else min(-3.0, contour.abscissa - 1.0)
    js, ns = [], []
    for j, ej in enumerate(e):
        top = max(0, math.floor(bases[:, j].real.max() + ej * re_min) + 2) if ej < 0 else 0
        js, ns = js + [j] * top, ns + list(range(top))
    js, ls = np.array(js, dtype=int), -np.array(e)[js]
    table = (bases[:, js].real - ns) / ls
    scanned = table >= re_min
    at = np.flatnonzero((scanned & (table <= 2.0)).any(axis=0))
    re, im = table[:, at], bases[:, js[at]].imag / ls[at]
    window, near = scanned[:, at] & (re <= 2.0), np.round(re)
    # the pairs in combinations order, then each pole and its nearest
    # integer; hypot is abs() of a Python complex
    p, q = np.triu_indices(len(at), 1)
    dist = np.concatenate([np.where(window[:, p] & window[:, q],
                                    np.hypot(re[:, p] - re[:, q], im[:, p] - im[:, q]), np.inf),
                           np.where(window, np.hypot(re - near, im), np.inf)], axis=1)
    candidates = (-0.45 + 0.01 * np.arange(41) if contour.abscissa is None
                  else np.array([contour.abscissa], dtype=float))
    reals = np.where(window, re, np.inf)[:, None]
    gaps = np.minimum(np.abs(candidates[:, None] - reals).min(axis=2, initial=np.inf),
                      np.abs(candidates - np.round(candidates)))
    best, rows = np.argmax(gaps, axis=1), np.arange(len(bases))
    sigma, gap, sep = candidates[best], gaps[rows, best], dist.min(axis=1, initial=np.inf)
    negative = contour.abscissa is None or contour.abscissa < 0
    fails = (sep < contour.clearance) | (gap < contour.clearance) | (not negative)
    if fails.any():
        c = int(np.argmax(fails))
        poles = [complex(x, y) for x, y in zip(re[c], im[c])]
        if sep[c] < contour.clearance:
            k = int(np.argmin(dist[c]))
            a, b = (poles[p[k]], poles[q[k]]) if k < len(p) else (poles[k - len(p)], int(near[c, k - len(p)]))
            raise PoleCollision("%s: left poles are closer than the clearance radius: %s and %s are"
                                " %g apart" % (name(c), _point(a), _point(b), sep[c]))
        if not negative:
            raise ContourTooClose("%s: abscissa %g is not negative" % (name(c), contour.abscissa))
        s = float(sigma[c])
        found = min([round(s)] + [z for z, w in zip(poles, window[c]) if w], key=lambda z: abs(s - z.real))
        raise ContourTooClose("%s: abscissa %g clears the poles by only %g, from %s"
                              % (name(c), s, gap[c], _point(found)))
    hit = (table > sigma[:, None] - 1.0).any(axis=0)  # n ascends within each j; the last n counts
    return sigma, dict(zip(js[hit].tolist(), (np.array(ns, dtype=int)[hit] + 1).tolist()))


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


def _interesting_residue(e, bases, log_xi, j_minus, n):
    """Residues of the integrand at the n-th poles of one negative direction,
    for an integer or an integer array n; a column of bases per stack column
    (see _log_gamma_block) gives one block of residues per column, and a
    column of log xi one row per point."""
    l = -e[j_minus]
    p = (bases[j_minus] - n) / l
    log_factorial, block = _log_gamma_block(e, bases, p, j_minus, n + 1.0)
    log_term = (-log_factorial - math.log(l) + LOG_PI - log_sin_pi(p) + p * log_xi + block)
    return np.where(n % 2, -1.0, 1.0) * np.exp(log_term)


def quad(f, reach):
    """The trapezoid rule along the nodes t = k / STEPS_PER_UNIT, and |f| at
    its ends.

    f is called once, on the nodes |k| <= max(reach), and returns its values
    there, one block per column along the first axis; the rule sums along
    the last axis, column i over the nodes |k| <= reach[i].  Returns the
    rule and the sum of |f| at the two ends, each with one block per column.
    """
    top = max(reach)
    y = f(np.arange(-top, top + 1) / STEPS_PER_UNIT)
    rules, edges = [], []
    for row, r in zip(y, reach):
        row = row[..., top - r:top + r + 1]
        rules.append((row.sum(axis=-1) - 0.5 * (row[..., 0] + row[..., -1])) / STEPS_PER_UNIT)
        edges.append(np.abs(row[..., 0]) + np.abs(row[..., -1]))
    return np.array(rules), np.array(edges)


def _aliases(p, sigma):
    """The ratio u of consecutive aliases of the pole p in the trapezoid rule
    on the line Re s = sigma: exp(-2 pi STEPS_PER_UNIT |p - sigma|), with
    its phase; |u| < 1 on either side of the line."""
    a = 2 * math.pi * STEPS_PER_UNIT * (p - sigma)
    return np.exp(np.where(np.real(p) > sigma, -a, a))


def mb_integral(spec, x, lam, contour=ContourSpec()):
    """The Barnes integral of mb_integral_with_error at the one point x for
    the one spec and sample lam, as a complex number."""
    values, _err = mb_integral_with_error([spec], [x], [lam], contour)
    return complex(values[0, 0])


@np.errstate(divide="ignore", invalid="ignore")  # at a pole; _check_poles names it
def mb_integral_with_error(specs, xs, lams, contour=ContourSpec()):
    """Barnes integral along the separating contour, as a vertical line plus
    residue corrections, at each of the points xs for each column of the
    stack: every sample of lams, the torus parameters, for each spec in turn
    (see stack_bases).

    The contour must keep the nonnegative integer poles on its right and all
    other poles on its left.  Non-integer poles whose real part exceeds the
    chosen abscissa are accounted for by adding their residues to the
    straight-line integral, which amounts to bending the line around them.
    The normalization makes the value equal the sum of right residues inside
    the degeneration radius and minus the sum of left residues outside it.

    The integrand is exp(G(s) + s log xi); G, the pole scan, the abscissa
    and the residues do not depend on x, so they are computed once for all
    points.  Poles are checked for separation, and the abscissa for its
    clearance, down to real part min(-3, sigma - 1); a failure names the
    column (stack_column), the two poles or the pole and the integer, and
    their distance.  The line is integrated by the trapezoid rule with step
    h = 1/6 on the nodes t = k h, |t| <= T.  A simple pole p of residue R
    adds a closed form to the rule's error, which the correction
    -R u / (1 - u) right of the line, R u / (1 - u) left of it, removes;
    u = exp(-2 pi |p - sigma| / h) with its phase.  The pole at s = 0 (R the
    k = 0 right residue), every non-integer pole right of the line (with its
    bending residue, -R / (1 - u) in all) and every non-integer pole less
    than 1 left of it are corrected.  The negative integers are not poles
    and s = 1 is more than 1 away, so the rule's own error is about
    exp(-2 pi / h), 4e-17, whatever the gap.  The integer nodes are the
    probe: each point gets the largest |t| at which |integrand| still
    reaches 2^-60 of its sum over the integer nodes evaluated; T is 1 past
    the largest of these, at least 8 and at most t_max, so a line takes at
    most 12 T + 1 nodes.  Beyond the imaginary parts of the Gamma arguments
    |integrand| falls like |t|^a exp(-(pi - |arg xi|) |t|), so it stays
    below that level past T.  So G is evaluated outward from t = 0, each
    node once: on |t| <= LINE_FIRST, or out to 1 + max |Im b_j / e_j|
    where that is farther, then LINE_CHUNK more units at each end while
    some column's outermost integer node still reaches the level, up to
    t_max.  A zero of a reciprocal Gamma is an exact 0 of the integrand, on
    the line or in a correction (log_gamma).  Each block of the line, the
    block at s = 0 and each direction's residues are checked once for a
    Gamma pole (_check_poles), which raises PoleCollision naming the stage,
    the column (stack_column) and the node t or the index n.

    The error is the bound on the cut tails, |integrand| at +-T over
    (pi - |arg xi|) 2 pi.  The rule's own error, 4e-17 of the integrand's
    scale, is below the rounding of the sum, so it is not added; a coarser
    rule would only measure its own, exp(-pi / h) = 6.5e-9 at step 2 h.

    Each column has its own base beta_j + d_j, poles, abscissa and T; G is
    evaluated for all columns together on the shared nodes, of which each
    column sums its own slice, and the s = 0 and pole corrections of all
    columns are evaluated together, a pole that another column needs adding
    an exact zero.  G is elementwise in t, so each column, whatever its
    label or sample, gets the bits of a stack of one.

    Returns (value, error), arrays over the columns and then over the points.
    """
    e, columns = specs[0].e, stack_bases(specs, lams)
    splits = [_split_xi(specs[0], x) for x in xs]
    log_xi = np.array([log for _xi, log in splits])[:, None]
    decay = np.array([math.pi - abs(cmath.phase(xi)) for xi, _log in splits])
    name = functools.partial(stack_column, specs, lams)
    sigma, counts = _line_setup(e, np.array(columns), contour, name)
    sigma = sigma[:, None, None]
    bases = _base_rows(columns)[..., None]

    def widen(log_f, end, to):
        """log_f, the log of the integrand, on the nodes |k| <= end widened to
        |k| <= to, both ends in one block; at end = -1 log_f holds no node."""
        nodes = np.arange(-to, to + 1)
        nodes = nodes[np.abs(nodes) > end]
        s = sigma + 1j * (nodes / STEPS_PER_UNIT)
        outer = _check_poles(LOG_PI - log_sin_pi(s) + _log_gamma_block(e, bases, s) + s * log_xi, "Barnes line",
                             name, lambda _c, i: "t = %g" % (nodes[i] / STEPS_PER_UNIT))
        half = len(nodes) // 2
        return np.concatenate([outer[..., :half], log_f, outer[..., half:]], axis=-1), to

    # outward from t = 0: first past every bump of the integrand, then a
    # chunk at each end while some column's outermost integer node is heavy
    bump = max(np.abs(bases[j].imag / ej).max() for j, ej in enumerate(e) if ej)
    top = STEPS_PER_UNIT * math.floor(contour.t_max)
    first = min(top, STEPS_PER_UNIT * math.ceil(max(LINE_FIRST, 1.0 + bump)))
    log_f, end = widen(np.empty((len(columns), len(xs), 0)), -1, first)
    while True:
        log_abs = log_f[..., ::STEPS_PER_UNIT].real
        weight = np.exp(log_abs - log_abs.max(axis=-1, keepdims=True))
        heavy = (weight >= 2.0 ** -60 * weight.sum(axis=-1, keepdims=True)).any(axis=1)
        if end == top or not (heavy[:, 0] | heavy[:, -1]).any():
            break
        log_f, end = widen(log_f, end, min(top, end + STEPS_PER_UNIT * LINE_CHUNK))
    probe = np.arange(-end // STEPS_PER_UNIT, end // STEPS_PER_UNIT + 1)
    far = np.where(heavy, np.abs(probe), 0).max(axis=-1)
    cuts = np.minimum(contour.t_max, np.maximum(LINE_FIRST, 1.0 + far))
    reach = [2 * max(1, math.floor(cut * STEPS_PER_UNIT / 2)) for cut in cuts]
    if max(reach) > end:  # a cut at a non-integer t_max passes the last integer node
        log_f, end = widen(log_f, end, max(reach))

    def F(t):
        return np.exp(log_f[..., end - len(t) // 2:end + len(t) // 2 + 1])

    rule, edge = quad(F, reach)
    value = -rule / (2 * math.pi)
    u = _aliases(0.0, sigma)
    at_zero = _check_poles(_log_gamma_block(e, bases, 0j), "pole corrections", name, lambda _c, _i: "s = 0")
    value -= (np.exp(at_zero) * u / (1 - u))[..., 0]
    for j, count in sorted(counts.items()):
        n = np.arange(count)
        residue = _interesting_residue(e, bases, log_xi, j, n)
        _check_poles(np.abs(residue), "pole corrections", name, lambda _c, i: "n = %d of direction %d" % (i, j))
        p = (bases[j] - n) / -e[j]
        # a pole of another column, 1 or more left of this one's line, adds 0
        u = _aliases(p, sigma)
        terms = np.where(p.real > sigma, -residue,
                         np.where(p.real > sigma - 1.0, residue * u, 0)) / (1 - u)
        for term in np.moveaxis(terms, -1, 0):
            value += term
    return value, edge / np.maximum(decay, 1e-9) / (2 * math.pi)


# ---------------------------------------------------------------------------
# residue sums


# terms per class that the residue sums compute at a time, each the last
# times a product of ratios, so a class computes at most RESIDUE_CHUNK - 1
# terms past where its stop rule fires; at verify mb's points no class of
# the bundled or benchmark crossings reads more than 27
RESIDUE_CHUNK = 32

# terms per class that the right and the left residue sums read at most
RIGHT_TERMS = 81
LEFT_TERMS = 201


def _sum_until_small(terms):
    """Per row of terms, the last axis: the sum of its terms in order,
    stopped after the third term in a row below 1e-14 times
    max(1, |partial sum|), and whether it stopped there; without such a run
    it is the sum of all the row's terms."""
    totals = np.cumsum(terms, axis=-1)
    small = np.abs(terms) < 1e-14 * np.maximum(1.0, np.abs(totals))
    runs = small[..., :-2] & small[..., 1:-1] & small[..., 2:]
    stopped = runs.any(axis=-1)
    at = np.where(stopped, runs.argmax(axis=-1) + 2, terms.shape[-1] - 1)
    return np.take_along_axis(totals, at[..., None], axis=-1)[..., 0], stopped


def _sums_in_chunks(terms_at, count, length):
    """_sum_until_small of the first `length` terms of each of count
    classes: per class, the sum and whether the rule stopped it.

    terms_at(open, k) gives the terms at the indices k of each class in
    open, an index array, one row per class.  The terms come RESIDUE_CHUNK
    indices at a time, for all the classes whose sum has not stopped yet.
    The rule reads no term past where it stops, so each sum is that of all
    `length` terms.
    """
    sums, stops = np.zeros(count, dtype=complex), np.zeros(count, dtype=bool)
    open_, terms = np.arange(count), np.empty((count, 0), dtype=complex)
    for start in range(0, length, RESIDUE_CHUNK):
        k = np.arange(start, min(start + RESIDUE_CHUNK, length))
        terms = np.concatenate([terms, terms_at(open_, k)], axis=1)
        total, stopped = _sum_until_small(terms)
        done = stopped | (k[-1] == length - 1)
        sums[open_[done]], stops[open_[done]] = total[done], stopped[done]
        open_, terms = open_[~done], terms[~done]
        if not len(open_):
            break
    return list(zip(sums.tolist(), stops.tolist()))


def _step_factors(e, bases, s, step, skip=None):
    """(top, bottom): factors whose products' quotient is the integrand's
    Gamma block (see _log_gamma_block) at s + step over the block at s, for
    step = 1 or -1, leaving out the factor of index skip.

    Factor j's argument a_j is -b_j - e_j s, a numerator Gamma, for e_j < 0
    and 1 + b_j + e_j s, a denominator, for e_j > 0; it moves by
    h = step |e_j|, and Gamma(a + h) / Gamma(a) is the product of a + o over
    0 <= o < h, or one over the product over h <= o < 0 (DLMF 5.5.1).  A
    factor with e_j = 0 does not move.  One row per (j, o), in order of j,
    each of the shape of b_j + e_j s."""
    rows = [(j, o) for j, ej in enumerate(e) if ej and j != skip
            for o in range(min(0, step * abs(ej)), max(0, step * abs(ej)))]
    j, o = np.array(rows, dtype=int).reshape(-1, 2).T
    ej = np.array(e)[j][:, None, None]
    args = np.where(ej < 0, -1.0, 1.0) * (bases[j] + ej * s) + ((ej > 0) + o[:, None, None])
    top = step * ej[:, 0, 0] < 0
    return args[top], args[~top]


def _ratio(top, bottom):
    """The product of top over the product of bottom, as one product of the
    quotients of paired rows.  A crepant crossing has as many of each (the
    e_j sum to 0), and each quotient stays near the ratio of two weights, so
    no partial product overflows where the ratio does not."""
    return np.prod(top / bottom, axis=0)


def _recurrence(seeds, ratios):
    """terms_at for _sums_in_chunks of classes whose term at k + 1 is the
    term at k times ratios(open, k), open an index array of classes and k
    one of indices, from each class's term at k = 0 in seeds.  A chunk
    continues from the last term of the chunk before, by one cumulative
    product of the ratios."""
    last = np.array(seeds)

    def terms_at(open_, k):
        first = k[0] == 0
        steps = ratios(open_, k[:-1] if first else k - 1)
        terms = np.cumprod(np.concatenate([last[open_, None], steps], axis=1), axis=1)
        terms = terms if first else terms[:, 1:]
        last[open_] = terms[:, -1]
        return terms

    return terms_at


@np.errstate(divide="ignore", invalid="ignore")  # at a pole; _check_poles names it
def right_residue_sum(specs, x, lams):
    """Sum of the residues at the nonnegative integers k = 0, 1, ..., 80,
    by _sum_until_small, evaluated in chunks (_sums_in_chunks); converges
    inside the degeneration radius.  Returns, per column of the stack (see
    stack_bases), the sum and whether the stop rule fired, False where the
    sum is cut at its RIGHT_TERMS terms; each chunk is evaluated once for
    every column whose sum has not stopped.

    The series is hypergeometric (DLMF 16.2): the term at k = 0 is the
    exponential of one Gamma block, and each next term is the last times
    -xi times the rational step of the Gamma factors (_step_factors), so no
    Gamma function is evaluated past k = 0.  A Gamma argument only grows
    with k, so a pole at any k is one at k = 0: the block of the seeds is
    checked once (_check_poles).  A zero seed, a reciprocal Gamma at a
    nonpositive integer, raises PoleCollision too: no step leaves it,
    though the later terms need not be 0.  Each error names the column
    (stack_column)."""
    xi, _log_xi = _split_xi(specs[0], x)
    e, bases = specs[0].e, _base_rows(stack_bases(specs, lams))
    name = functools.partial(stack_column, specs, lams)
    seeds = np.exp(_check_poles(_log_gamma_block(e, bases, 0j), "right residue sum", name, lambda _c, _i: "n = 0"))
    if not seeds.all():  # the recurrence would carry a 0, and the stop rule read its zeros as a sum of 0
        raise PoleCollision("right residue sum, %s: the term at n = 0 is 0, which cannot seed the series"
                            % name(int(np.flatnonzero(seeds == 0)[0])))

    def ratios(open_, k):
        return -xi * _ratio(*_step_factors(e, bases[:, open_], k, 1))

    return _sums_in_chunks(_recurrence(seeds[:, 0], ratios), bases.shape[1], RIGHT_TERMS)


def _left_class_sums(e, bases, xi, log_xi, j, name):
    """The left residue sums of direction j, e_j = -l, one per class q, the
    congruence class q % l of column q // l (see left_residue_sum)."""
    l = -e[j]

    def ratios(open_, k):
        n = k * l + (open_ % l)[:, None]
        b = bases[:, open_ // l]
        top, bottom = _step_factors(e, b, (b[j] - n) / l, -1, skip=j)
        bottom = np.concatenate([bottom, n + np.arange(1.0, l + 1)[:, None, None]])
        return (-1.0) ** (l + 1) / xi * _ratio(top, bottom)

    q = np.arange(bases.shape[1] * l)
    recurrence = _recurrence(_interesting_residue(e, bases[:, q // l], log_xi, j, (q % l)[:, None])[:, 0], ratios)

    def terms_at(open_, k):
        terms = recurrence(open_, k)
        _check_poles(np.abs(terms), "left residue sum", lambda r: name(open_[r] // l),
                     lambda r, i: "n = %d of direction %d" % (k[i] * l + open_[r] % l, j))
        return terms

    return _sums_in_chunks(terms_at, len(q), LEFT_TERMS)


@np.errstate(divide="ignore", invalid="ignore")  # at a pole; _check_poles names it
def left_residue_sum(specs, x, lams):
    """Sum of all residues left of the contour (sign unflipped).

    Per negative direction of pairing -l, each congruence class n = k*l + c,
    k = 0, 1, ..., 200, the contribution of a single next-to partner to the
    continued series, is summed on its own by _sum_until_small, in chunks of
    k (_sums_in_chunks).  Returns, per column of the stack (see
    stack_bases), the sum and whether the stop rule fired for every class,
    False where some class is cut at its LEFT_TERMS terms.

    One _interesting_residue call per direction gives the term at n = c of
    every class of every column.  The pole p = (b - n) / l of a class steps
    by -1 as k grows, so each next term is the last times
    (-1)^(l+1) / (xi (n + 1) ... (n + l)) and the rational step of the
    other Gamma factors (_step_factors).  Their arguments fall as k grows,
    so a class can meet a pole past k = 0, where a step divides by 0, and a
    zero of a reciprocal Gamma, where a step multiplies by 0 and the terms
    stay 0, as they are.  Each chunk, seeds included, is checked once
    (_check_poles): a term at a pole, infinite or NaN, raises PoleCollision
    naming the column (stack_column), n and the direction.
    """
    xi, log_xi = _split_xi(specs[0], x)
    e, bases = specs[0].e, _base_rows(stack_bases(specs, lams))
    columns = bases.shape[1]
    totals, stopped = [0j] * columns, [True] * columns
    for j, l in enumerate(-ej for ej in e):
        if l <= 0:
            continue
        sums = _left_class_sums(e, bases, xi, log_xi, j, functools.partial(stack_column, specs, lams))
        for q, (class_sum, class_stopped) in enumerate(sums):
            totals[q // l] += class_sum
            stopped[q // l] = stopped[q // l] and class_stopped
    return list(zip(totals, stopped))


@dataclass(frozen=True)
class ResidueReport:
    residual_inside: float
    residual_outside: float
    # whether the right (inside) or the left (outside) residue sum was cut
    # at its last term without its stop rule firing
    cut_inside: bool
    cut_outside: bool


def verify_residue_identity(wc, labels_plus, x_inside, x_outside, lams, contour=ContourSpec()):
    """Compare the Barnes integral against both residue expansions, one
    report per sample of lams for each label of labels_plus in turn.

    Inside the degeneration radius the integral equals the right residue
    sum; outside it equals minus the left residue sum.  The inner spec does
    not depend on the sample, so it is built once per label, and the line
    and each residue sum are evaluated once for every label and sample, as
    one stack (see stack_bases).
    """
    c = abs(float(conifold_point(wc)))
    if not (abs(x_inside) < c < abs(x_outside)):
        raise ValueError("need |x_inside| < |conifold| < |x_outside|")
    specs = [make_inner_spec(wc, label) for label in labels_plus]
    values, _err = mb_integral_with_error(specs, (x_inside, x_outside), lams, contour)
    rights = right_residue_sum(specs, x_inside, lams)
    lefts = left_residue_sum(specs, x_outside, lams)
    return [ResidueReport(
        residual_inside=abs(v_in - right),
        residual_outside=abs(v_out + left),
        cut_inside=not right_stopped,
        cut_outside=not left_stopped,
    ) for (v_in, v_out), (right, right_stopped), (left, left_stopped) in zip(values, rights, lefts)]
