"""Hypergeometric series at fixed points: inner sums, ODE check, constants.

The inner sum at an inertia fixed point is a one-variable series in the wall
monomial; its coefficients are ratios of Gamma values assembled in log space,
with factors at exact integer arguments handled exactly (a reciprocal Gamma
at a nonpositive integer kills the term).  All series are normalized so the
k = 0 coefficient is 1.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gitfan import FixedPointLabel
from .lattice import anticone_inverse
from .localization import restrict_u

TWO_PI_I = 2j * math.pi


class PoleCollision(ValueError):
    """A Gamma factor was evaluated at or too close to a nonpositive integer."""


class CrepancyViolation(ValueError):
    """The two expressions for the index shift disagree."""


# ---------------------------------------------------------------------------
# complex log-Gamma (Lanczos, g = 607/128, 15 terms) with reflection

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
LOG_PI = math.log(math.pi)


def _lanczos_sum(zm1):
    """C_0 + sum over k of C_k / (zm1 + k), elementwise for a 1-D array,
    added in order of k.

    The terms are formed one k at a time in one scratch row and added in
    place, so every element gets the additions of a term-by-term loop, bit
    for bit, without a temporary per term.
    """
    out, term = np.full_like(zm1, _LANCZOS_C[0]), np.empty_like(zm1)
    for k in range(1, len(_LANCZOS_C)):
        np.add(zm1, k, out=term)
        np.divide(_LANCZOS_C[k], term, out=term)
        np.add(out, term, out=out)
    return out


def log_sin_pi(z):
    """A logarithm of sin(pi z), elementwise for a scalar or an array, stable
    for large imaginary part.

    The branch is unspecified; callers only ever exponentiate sums of these.
    A NaN imaginary part gives NaN, and an exact integer -inf: sin(pi z)
    vanishes there, though only sin(0) rounds to 0.
    """
    scalar = np.ndim(z) == 0
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    near = np.abs(z.imag) < 20.0
    whole = near.all()
    if not whole:
        up, down = z.imag >= 20.0, z.imag <= -20.0
        near = ~(up | down)  # a NaN imaginary part falls here and gives NaN
    zn = z if whole else z[near]
    s = np.sin(math.pi * zn)
    zeros = (zn.imag == 0) & (zn.real == np.floor(zn.real))
    s[zeros] = 1.0  # log(0) would warn
    logs = np.log(s)
    logs[zeros] = -np.inf
    if whole:
        out = logs
    else:
        out = np.empty_like(z)
        out[near] = logs
        # sin(pi z) = (i/2) e^{-i pi z} (1 - e^{2 i pi z}), and its mirror image;
        # at |Im z| >= 20, |e^{2 i pi z}| < 1e-54, so log(1 - e^{2 i pi z}) is
        # below the rounding of the other terms, whose real part exceeds 62
        out[up] = cmath.log(0.5j) - 1j * math.pi * z[up]
        out[down] = cmath.log(-0.5j) + 1j * math.pi * z[down]
    return complex(out[0]) if scalar else out


def log_gamma(z):
    """log Gamma(z), elementwise for a complex scalar or array, accurate to
    ~1e-14 relative.

    Right half-plane by the Lanczos sum; left half-plane by reflection.  The
    branch on the left is not the principal one, which is harmless here
    because results are only exponentiated.  At an exact nonpositive
    integer, a pole, the reflection gives +inf, since log_sin_pi is -inf
    there: a reciprocal Gamma there is exp(-inf), an exact 0 (DLMF 5.2.1).
    """
    scalar = np.ndim(z) == 0
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    left = z.real < 0.5
    reflect = left.any()
    zm1 = (np.where(left, 1.0 - z, z) if reflect else z) - 1.0
    s = _lanczos_sum(zm1.ravel()).reshape(zm1.shape)
    t = zm1 + _LANCZOS_G + 0.5
    out = _LOG_SQRT_2PI + (zm1 + 0.5) * np.log(t) - t + np.log(s)
    if reflect:
        out[left] = LOG_PI - log_sin_pi(z[left]) - out[left]
    return complex(out[0]) if scalar else out


def check_generic(arg, clearance):
    """Raise PoleCollision when arg, a scalar or an array, is within clearance
    of a nonpositive integer."""
    arg = np.asarray(arg, dtype=complex)
    n = np.round(arg.real)
    close = (n <= 0) & (np.abs(arg - n) < clearance)
    if np.any(close):
        raise PoleCollision("Gamma argument %r within %g of pole"
                            % (complex(arg[close][0]), clearance))


# ---------------------------------------------------------------------------
# exact constants of the wall


def conifold_point(wc):
    """The degeneration point of the wall monomial, an exact rational."""
    c = Fraction(1)
    for i in range(wc.git.m):
        a = wc.pair_e(i)
        if a != 0:
            c *= Fraction(a) ** a
    return c


def w_constant(wc):
    """The integer phase shift of the continuation path.

    Computed by both equivalent expressions; their agreement is the crepancy
    condition and is asserted.
    """
    neg = -1 - sum(a for a in wc.pairings if a < 0)
    pos = -1 + sum(a for a in wc.pairings if a > 0)
    if neg != pos:
        raise CrepancyViolation("index shift expressions disagree: %d vs %d" % (neg, pos))
    return neg


# ---------------------------------------------------------------------------
# inner series data


@dataclass(frozen=True)
class InnerSeriesSpec:
    """One inner series: fixed point, base exponent class and pairings.  The
    base exponent and its pairings are integer numerators over det, the
    isotropy order (canonical_d_plus)."""

    label: FixedPointLabel
    d_plus: tuple  # the base exponent of the series, d_plus / det
    d: tuple  # D_j . d_plus
    det: int
    e: tuple  # D_j . e, ints
    beta_forms: tuple  # u_j(delta) as LinearForms

    def betas(self, lam):
        """u_j(delta)(lam) / (2 pi i) for every j."""
        return tuple(form(lam) / TWO_PI_I for form in self.beta_forms)


# bound of the wall coordinates of a base exponent
WALL_BOUND = 12


def canonical_d_plus(wc, label):
    """Smallest base exponent representing the label's sector, as (num, det)
    with d_plus = num / det over the isotropy order.

    In coordinates c_i = D_i . d over i in delta, the base exponent has
    wall coordinates in [0, WALL_BOUND], off-wall coordinate below its
    pairing with the wall normal, and is congruent to the sector: d - f is
    integral.  The lexicographically smallest such coordinate vector k is
    chosen; with the cached anticone inverse adj / det, num = adj k and the
    congruence is num = det f modulo det, where det f is the sector's
    numerators moved from its order, which divides det, to det.
    """
    e_coords = [wc.pair_e(i) for i in label.delta]
    off = [t for t, v in enumerate(e_coords) if v != 0]
    assert len(off) == 1 and e_coords[off[0]] > 0, "label must sit across the wall"
    grid = itertools.product(*(range(0, v) if t == off[0] else range(0, WALL_BOUND + 1)
                               for t, v in enumerate(e_coords)))
    adj, det = anticone_inverse(wc.git.D, label.delta)
    target = [x * (det // label.sector.den) for x in label.sector.num]
    for kvec in grid:
        num = [sum(a * k for a, k in zip(row, kvec)) for row in adj]
        if all((x - t) % det == 0 for x, t in zip(num, target)):
            return tuple(num), det
    raise ValueError("no base exponent found within the wall bound")


def make_inner_spec(wc, label):
    git = wc.git
    num, det = canonical_d_plus(wc, label)
    d = tuple(sum(a * x for a, x in zip(row, num)) for row in git.D)
    for i in label.delta:
        assert d[i] % det == 0 and d[i] >= 0, "base exponent must be effective"
    return InnerSeriesSpec(label=label, d_plus=num, d=d, det=det, e=tuple(wc.pair_e(j) for j in range(git.m)),
                           beta_forms=restrict_u(git, label.delta))


@functools.lru_cache(maxsize=256)
def _exact_part(factors, ks):
    """The product of the exact factors' Gamma ratios
    Gamma(1 + d0) / Gamma(1 + d0 + k e_j), (d0, e_j) in factors, at each k in
    ks as (live, log |product| of the live k, sign of the live k), from integer
    products reduced once per k.  It does not depend on the torus parameters,
    so it is built once and shared by every sample."""
    exact = []
    for k in ks:
        num = den = 1
        for d0, ej in factors:
            dk = d0 + k * ej  # a reciprocal Gamma at 1 + dk <= 0 is zero
            num *= math.prod(range(dk + 1, d0 + 1)) if dk >= 0 else 0
            den *= math.prod(range(d0 + 1, dk + 1))
        g = math.gcd(num, den)
        exact.append((num // g, den // g))
    kept = [(num, den) for num, den in exact if num]
    out = (np.array([num != 0 for num, _den in exact], dtype=bool),
           np.array([math.log(abs(num)) - math.log(den) for num, den in kept]),
           np.array([1.0 if num > 0 else -1.0 for num, _den in kept]))
    for a in out:
        a.flags.writeable = False  # shared by every caller
    return out


def stack_bases(specs, lams):
    """beta_j + d_j of every column of a stack, as a tuple of Python complex
    numbers per column.  The columns are every sample of lams for each spec in
    turn; the specs are of one crossing, so they share e."""
    out = []
    for spec in specs:
        d = [complex(x / spec.det) for x in spec.d]
        out += [tuple(b + x for b, x in zip(spec.betas(lam), d)) for lam in lams]
    return out


def _base_rows(bases):
    """stack_bases by factor: row j holds beta_j + d_j of every column as a
    column of shape (columns, 1)."""
    return np.array(bases).T[..., None]


def stack_column(specs, lams, c):
    """How an error names column c of a stack: by its sample, and by its
    label too when the stack has more than one."""
    i = c % len(lams)
    return "sample %d" % i if len(specs) == 1 else "%s, sample %d" % (specs[c // len(lams)].label, i)


def _log_coefficients(specs, ks, lams):
    """(live, sign, log) of the coefficients at the integer array ks of every
    column of the stack (see stack_bases): which are nonzero, one row per
    column, and the sign of the exact part and the complex logarithm of each
    live one, in the row-major order of live.

    Factors whose argument is exactly integral (in particular every factor
    over the defining anticone) are evaluated exactly; a reciprocal Gamma at
    a nonpositive integer makes the coefficient vanish.  Generic factors are
    assembled in log space, for all live k of all columns at once, from one
    log_gamma call that holds, factor by factor, the factor's argument at
    k = 0 of each column where it is generic and then at their live k.  A
    column's arguments keep the order of a stack of one, and a failure names
    the column (stack_column).
    """
    key, parts, generic, a0 = tuple(ks.tolist()), [], [], []
    for spec in specs:
        d = [complex(x / spec.det) for x in spec.d]
        for lam in lams:
            betas = spec.betas(lam)
            exact = tuple(j for j, b in enumerate(betas) if b == 0 and spec.d[j] % spec.det == 0)
            parts.append(_exact_part(tuple((spec.d[j] // spec.det, spec.e[j]) for j in exact), key))
            generic.append([j not in exact for j in range(len(betas))])
            a0.append([1 + b + x for b, x in zip(betas, d)])
    live = np.array([live for live, _log, _sign in parts])
    col, at = np.nonzero(live)
    k = ks[at]
    # per factor: the columns where it is generic, and which live k are theirs
    blocks = [(np.flatnonzero(g), g[col]) for g in np.array(generic).T]
    args = np.concatenate([x for (cols, on), a, ej in zip(blocks, np.array(a0).T, specs[0].e)
                           for x in (a[cols], a[col[on]] + k[on] * ej)])
    try:
        check_generic(args, 1e-8)
    except PoleCollision:
        owner = np.concatenate([x for cols, on in blocks for x in (cols, col[on])])
        for c in range(len(parts)):
            try:
                check_generic(args[owner == c], 1e-8)
            except PoleCollision as exc:
                raise PoleCollision("%s: %s" % (stack_column(specs, lams, c), exc)) from None
    values, end = log_gamma(args), 0
    log_acc, at_zero = np.zeros(len(k), dtype=complex), np.empty(len(parts), dtype=complex)
    for cols, on in blocks:
        head, end = end + len(cols), end + len(cols) + np.count_nonzero(on)
        at_zero[cols] = values[head - len(cols):head]
        # at k = 0 the factor is 1 by the normalization, not by rounding
        log_acc[on] += np.where(k[on] == 0, 0j, at_zero[col[on]] - values[head:end])
    # the exact part and the Gamma part can separately over- or underflow
    # at large k while their product stays moderate; combine in log space
    return (live, np.concatenate([sign for _live, _log, sign in parts]),
            log_acc + np.concatenate([log for _live, log, _sign in parts]))


@dataclass(frozen=True)
class TruncatedSeries:
    """Finite initial segment of a one-variable power series: the k-th
    coefficient is coeffs[k] * 2**exponent."""

    coeffs: tuple  # complex, indices 0..order
    order: int
    exponent: int  # 0 unless a coefficient would overflow


def inner_series(specs, order, lams):
    """The inner series to the given order of every column of the stack
    (see stack_bases), in column order: the coefficient of the k-th power of
    the wall monomial, normalized to 1 at k = 0 (see _log_coefficients).
    Where one of a series' coefficients overflows, every coefficient of that
    series is carried under one common factor 2**exponent that brings the
    largest to about 1 (the factor is exp(exponent * ln 2) in floating
    point, off 2**exponent by the rounding of that product, the same for
    every coefficient); the smallest may then underflow to 0."""
    live, sign, logs = _log_coefficients(specs, np.arange(order + 1), lams)
    coeffs, exponents = np.zeros(live.shape, dtype=complex), [0] * len(live)
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs[live] = sign * np.exp(logs)
    ends = np.cumsum(live.sum(axis=1))
    for c in np.flatnonzero(~np.isfinite(coeffs).all(axis=1)):
        at = slice(ends[c] - live[c].sum(), ends[c])
        exponents[c] = math.ceil(logs[at].real.max() / math.log(2))
        coeffs[c, live[c]] = sign[at] * np.exp(logs[at] - exponents[c] * math.log(2))
    return [TruncatedSeries(coeffs=tuple(row), order=order, exponent=exponent)
            for row, exponent in zip(coeffs.tolist(), exponents)]


# ---------------------------------------------------------------------------
# the one-variable ODE annihilating the inner series


def _complex_product(a, b):
    """a * b for (real, imaginary) pairs of float arrays, by the formula of
    CPython's complex product, so each entry is bit for bit that of complex
    scalar arithmetic; numpy's complex product differs in the last bit."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _complex_quotient(a, b):
    """a / b for (real, imaginary) pairs of float arrays by the formula of
    CPython's complex quotient, top and bottom divided through by the larger
    part of b, so each entry is bit for bit that of complex scalar division;
    numpy's complex quotient differs in the last bit."""
    (ar, ai), (br, bi) = a, b
    by_real = np.abs(br) >= np.abs(bi)
    big, small = np.where(by_real, br, bi), np.where(by_real, bi, br)
    ratio = small / big
    denom = big + small * ratio
    return (np.where(by_real, ar + ai * ratio, ar * ratio + ai) / denom,
            np.where(by_real, ai - ar * ratio, ai * ratio - ar) / denom)


def _euler_products(e, bases, n):
    """The two Euler-operator products on the monomials of the degrees n, an
    integer array, each as a (real, imaginary) pair of float arrays.  Row j
    of bases is beta_j + d_j, a scalar or a column of one per series that
    broadcasts against n."""
    plus = minus = (np.ones(len(n)), np.zeros(len(n)))
    for ej, base in zip(e, bases):
        for l in range(abs(ej)):
            factor = ej * n + base - l
            if ej > 0:
                plus = _complex_product(plus, (factor.real, factor.imag))
            else:
                minus = _complex_product(minus, (factor.real, factor.imag))
    return plus, minus


def gkz_ode_residual(series, specs, lams):
    """Largest relative residual of the annihilating operator on each series,
    those of the columns of the stack (see stack_bases), as a list.

    The operator is the difference of the positive-direction Euler product
    and the monomial times the negative-direction product; it vanishes
    identically on the exact series.  All degrees of all series are
    evaluated at once, one row per series.
    """
    c = np.array([ser.coeffs for ser in series], dtype=complex)
    # the residual does not change when every coefficient is multiplied by
    # one factor; a power of two that brings a series' largest below 1
    # changes no rounding, and keeps the products finite where the
    # coefficients are
    _mantissa, top = np.frexp(np.maximum(np.abs(c.real), np.abs(c.imag)).max(axis=1, keepdims=True))
    coeffs = (np.ldexp(c.real, -top), np.ldexp(c.imag, -top))
    bases = _base_rows(stack_bases(specs, lams))
    # an overflowed series or product leaves a NaN residual, which FAILs the
    # suite's gate
    with np.errstate(over="ignore", invalid="ignore"):
        products_plus, products_minus = _euler_products(specs[0].e, bases, np.arange(c.shape[1]))
        plus = _complex_product(products_plus, coeffs)
        # the monomial raises the negative-direction term by one degree
        minus = [np.concatenate([np.zeros((len(c), 1)), x[:, :-1]], axis=1)
                 for x in _complex_product(products_minus, coeffs)]
        # hypot is abs() of a Python complex; numpy's complex abs differs in
        # the last bit.  The scale is max() of the two largest, as Python
        # picks it where one is NaN
        top_plus, top_minus = np.hypot(*plus).max(axis=1), np.hypot(*minus).max(axis=1)
        scale = np.where(top_minus > top_plus, top_minus, top_plus)
        resid = np.hypot(plus[0] - minus[0], plus[1] - minus[1]).max(axis=1) / scale
    return np.where(scale == 0.0, 0.0, resid).tolist()


# ---------------------------------------------------------------------------
# seeded generic sampling of torus parameters


def lambda_matrix(lam_samples, zs=None):
    """Samples as the columns of an (m, S) array.  With ``zs``, sample s
    becomes 2 pi i lam_s / z_s, the substitution of the modified pairing."""
    lams = np.array(lam_samples, dtype=complex).T
    if zs is None:
        return lams
    return TWO_PI_I * lams / np.array(zs, dtype=complex)


def generic_lambdas(wc, count, seed, clearance=1e-3):
    """The first ``count`` seeded samples of the torus parameters whose
    genericity gap, the smallest |u_j(delta)(lam)| over the nonzero
    restricted classes of both sides, exceeds the clearance.  At most
    2 * count + 4 samples are drawn; PoleCollision when fewer pass.

    Real parts are uniform in [-0.4, 0.4]; imaginary parts have magnitude in
    [0.05, 0.4] with random sign, which keeps Gamma arguments away from the
    real resonance locus.  The radius 0.4 keeps the restricted classes small
    enough for rapid convergence but large enough that point-class
    restrictions stay well above the sensitivity floor of the verification
    suites.  A parameter takes three draws of random.Random(seed): its real
    part, the magnitude and the sign of its imaginary part, each part by
    random.uniform's own a + (b - a) r.  Samples are drawn as many at a time
    as are still missing, and each batch is filtered by one product with the
    forms."""
    m = wc.git.m
    # u_j(delta) is zero exactly for j in delta
    forms = [u[j].floats for A in (wc.A_plus, wc.A_minus) for delta in A.minimal
             for u in [restrict_u(wc.git, delta)] for j in range(m) if j not in delta]
    forms = np.array(forms, dtype=float).reshape(len(forms), m)
    rng, limit, drawn, out = random.Random(seed), 2 * count + 4, 0, []
    while len(out) < count and drawn < limit:
        batch = min(count - len(out), limit - drawn)
        drawn += batch
        r = np.array([rng.random() for _ in range(3 * m * batch)]).reshape(batch, m, 3)
        lams = np.empty((batch, m), dtype=complex)
        lams.real = -0.4 + (0.4 - -0.4) * r[..., 0]
        lams.imag = (0.05 + (0.4 - 0.05) * r[..., 1]) * np.where(r[..., 2] < 0.5, 1.0, -1.0)
        gaps = np.abs(forms @ lams.T).min(axis=0, initial=np.inf)
        out += map(tuple, lams[gaps > clearance].tolist())
    if len(out) < count:
        raise PoleCollision("could not draw %d generic samples: %d of %d draws had a genericity gap above %g"
                            % (count, len(out), drawn, clearance))
    return out
