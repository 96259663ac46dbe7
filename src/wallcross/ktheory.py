"""Localized equivariant K-theory at fixed points and the pull-push transform.

Every class is a character line bundle L(rho) times an integer Laurent
polynomial in the inverse divisor bundles S_j.  The pull-push image of a
point basis element is written in closed form, one signed monomial per set of
normal directions, and compared at fixed points with the continuation matrix
applied to the minus side; the Euler pairing is an inertia fixed-point sum.
Restriction to a fixed point is a ring homomorphism, so the verification
drivers restrict a basis class as a product of m - r binomials and its image
by the root average of that product, never expanding either into terms,
every sample at once; the expanded terms are the reference.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .gitfan import _idot, fixed_point_labels
from .hypergeom import TWO_PI_I, check_generic, log_gamma
from .lattice import anticone_inverse, intvec, quotient_transversal
from .localization import LinearForm, restrict_u, theta_restrict
from .mellinbarnes import continuation_matrix

# a localization denominator factor smaller than this makes a sample resonant
RESONANCE_CLEARANCE = 1e-9


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


def basis_e(git, A, delta, rho_hat):
    """Point class at a minimal anticone twisted by a character lift:
    L(rho_hat) times the product of (1 - S_i) over i not in delta, expanded
    one normal direction at a time over its subsets."""
    terms = [((0,) * git.m, 1)]
    for j in (i for i in range(git.m) if i not in delta):
        terms += [(s[:j] + (1,) + s[j + 1:], -c) for s, c in terms]
    return KClass(intvec(rho_hat), tuple(sorted(terms)))


def isotropy_order(git, delta):
    return anticone_inverse(git.D, delta)[1]


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
        return basis_e(git, wc.A_plus, delta_minus, rho_hat)
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


def lambda_matrix(lam_samples, zs=None):
    """Samples as the columns of an (m, S) array.  With ``zs``, sample s
    becomes 2 pi i lam_s / z_s, the substitution of the modified pairing."""
    lams = np.array(lam_samples, dtype=complex).T
    if zs is None:
        return lams
    return TWO_PI_I * lams / np.array(zs, dtype=complex)


def _exps(rows, den, form_den, lams):
    """exp(2 pi i n / den) exp(form(lam)) for integer rows (n, form numerators
    over form_den), n reduced mod den first.  By einsum: after a complex BLAS
    product numpy's complex exp ran 10-15 times slower (numpy 2.4, OpenBLAS)."""
    turns = np.array([n % den for n, _ in rows], dtype=float) / den
    forms = np.array([form for _, form in rows], dtype=float).reshape(len(rows), lams.shape[0]) / form_den
    return np.exp(TWO_PI_I * turns)[:, None] * np.exp(np.einsum("ij,js->is", forms, lams))


def restricted_basis(wc, basis, delta, num, den, lams, images=False):
    """The (len(basis), S) restrictions of the minus basis classes, or with
    ``images`` of their pull-push images, at the fixed point (delta, num /
    den).  Restriction is a ring homomorphism: with S_j|_p = exp(-2 pi i D_j
    . num / den) exp(-u_j(lam)), L(rho) prod_{i not in delta_b} (1 - S_i)
    restricts to L(rho)|_p times its restricted factors, not 2^(m-r) terms;
    1 - S_j|_p = 0 exactly for j in delta, as phases are reduced in integers.
    An image on a common anticone is its minus class, else _root_average's.
    A dual class restricts as its class at (-num, -lams)."""
    git = wc.git
    u = restrict_u(git, delta)
    pair = [_idot(row, num) for row in git.D]
    rhos = tuple(rho for _, rho in basis)
    lines = list(zip((_idot(rho, num) for rho in rhos), _thetas(git, delta, rhos)))  # L(rho)|_p
    values = _exps([(-p, [-x for x in form.num]) for p, form in zip(pair, u)] + lines, den, u[0].den, lams)
    s, out = values[:git.m], values[git.m:]
    for delta_b, group in itertools.groupby(range(len(basis)), key=lambda b: basis[b][0]):
        members = list(group)
        j_minus = next(i for i in delta_b if wc.pair_e(i) < 0)
        if images and delta_b not in wc.A_plus.minimal and j_minus not in delta:
            out[members] = _root_average(wc, delta, pair, den, lams, delta_b, j_minus,
                                         [rhos[b] for b in members], [lines[b] for b in members])
        else:
            out[members] *= (1 - s[[j for j in range(git.m) if j not in delta_b]]).prod(axis=0)
    return out


@lru_cache(maxsize=256)
def _thetas(git, delta, rhos):
    """theta(rho) at ``delta`` for each rho, as numerators over det."""
    return tuple(theta_restrict(git, delta, rho).num for rho in rhos)


def _root_average(wc, delta, pair, den, lams, delta_b, j_minus, rhos, lines):
    """fm_transform's images of the classes (delta_b, rho) at the fixed point,
    the same closed form factored, the S_j unexpanded: the mean over the l-th
    roots t of 1 / S_{j-}|_p of P(t) = L(rho) t^(rho.e) (1 + ... +
    t^-(l-1)) prod_{j not in delta_b} (1 - t^-k_j S_j), the w^0 coefficient
    of P mod w^l = 1 for t = tau w.
    The factors exact in t (the geometric sum, 1 - t^-k_j for j in delta)
    give integer coefficients; each L(rho) tau^n is one exponential, summed
    into its class of n mod l, so a class of zero coefficients stays 0.0.
    The factors 1 - w^-k_j tau^-k_j S_j|_p multiply the classes cyclically.
    Where j- lies in delta, tau^l = 1 and the image is the minus class."""
    u = restrict_u(wc.git, delta)
    l, top, a = -wc.pair_e(j_minus), u[j_minus].num, pair[j_minus]
    ks = [max(p, 0) for p in wc.pairings]
    exact = np.ones(l, dtype=int)  # coefficients of t^(n0 - d), d = 0, 1, ...
    for k in (ks[j] for j in delta if j not in delta_b):
        exact = np.concatenate([exact, [0] * k]) - np.concatenate([[0] * k, exact])
    terms = [d for d in range(len(exact)) if exact[d]]
    moving = [j for j in range(wc.git.m) if j not in delta_b and j not in delta]
    n0 = [_idot(rho, wc.e) for rho in rhos]
    rows = [(l * phase + (n - d) * a, [l * x + (n - d) * y for x, y in zip(theta, top)])
            for (phase, theta), n in zip(lines, n0) for d in terms]
    rows += [(-ks[j] * a - l * pair[j], [-ks[j] * y - l * z for y, z in zip(top, u[j].num)]) for j in moving]
    values = _exps(rows, den * l, u[0].den * l, lams)
    split = len(rhos) * len(terms)
    classes = np.zeros((len(rhos), l, lams.shape[1]), dtype=complex)
    for t, d in enumerate(terms):
        classes[:, d % l] += exact[d] * values[t:split:len(terms)]
    for j, x in zip(moving, values[split:]):
        classes = classes - classes[:, (np.arange(l) - ks[j]) % l] * x
    return classes[np.arange(len(rhos)), np.array(n0) % l]


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


def localization_gram(git, A, restrict, lams):
    """Localized Euler pairings chi(E_a, E_b) at every sample at once.

    ``restrict(delta, num, den, lams)`` gives the (classes, S) restrictions
    of the classes at one inertia fixed point.  Each point contributes the
    restriction of dual(E_a), which is that of E_a at (-num, -lams), times
    that of E_b, divided by the isotropy order and by the product over
    normal directions of (1 - phase * exp(-u)); no product class is formed.
    The points are stacked in contiguous real and imaginary arrays, summed by
    four real products per sample (complex exp slowed after a complex one).
    Returns the (classes, classes, S) Gram array and, per sample, the
    smallest normal factor in absolute value.
    """
    labels = fixed_point_labels(git, A)
    smallest = np.full(lams.shape[1], np.inf)
    # resonant samples divide by ~0 here, and the callers mask them out; a
    # small |z| overflows the exponentials, and the NaN it leaves FAILs the
    # suite's gate
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for p, label in enumerate(labels):
            delta, sec = label.delta, label.sector
            u, normal = restrict_u(git, delta), [j for j in range(git.m) if j not in delta]
            factors = 1 - _exps([(-sec.pairings[j], [-x for x in u[j].num]) for j in normal], sec.den, u[0].den, lams)
            smallest = np.minimum(smallest, np.abs(factors).min(axis=0, initial=np.inf))
            v_left = restrict(delta, tuple(-x for x in sec.num), sec.den, -lams) / (
                isotropy_order(git, delta) * factors.prod(axis=0))
            v_right = restrict(delta, sec.num, sec.den, lams)
            if p == 0:
                # (S, B, P) left and (S, P, B) right stacks, real then imaginary
                S, B, P = lams.shape[1], len(v_right), len(labels)
                left_re, left_im, right_re, right_im = (np.empty((S,) + d) for d in ((B, P), (B, P), (P, B), (P, B)))
            left_re[:, :, p], left_im[:, :, p] = v_left.real.T, v_left.imag.T
            right_re[:, p], right_im[:, p] = v_right.real.T, v_right.imag.T
        gram = np.empty((S, B, B), dtype=complex)
        gram.real = left_re @ right_re - left_im @ right_im
        gram.imag = left_re @ right_im + left_im @ right_re
    return gram.transpose(1, 2, 0), smallest


def euler_pairing(git, A, E, F, lam, z=None):
    """Equivariant Euler pairing by summation over inertia fixed points.

    The one-sample case of localization_gram on the expanded restrictions
    of E and F, the reference for the factored ones; the modified pairing
    substitutes 2 pi i lam/z for lam first.
    """
    def expanded(delta, num, den, lams):
        return np.array([[eval_terms(restriction_terms(git, c, delta, num, den), lams[:, 0])]
                         for c in (E, F)], dtype=complex)

    gram, smallest = localization_gram(git, A, expanded, lambda_matrix([lam], None if z is None else [z]))
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
        per_point = np.abs(self.diff).max(axis=(0, 2), initial=0.0)
        smallest = float("inf")
        for p, row in self.pairs:
            others = np.delete(per_point, p).max(initial=0.0)
            bumped = np.abs(self.diff[:, p] - epsilon * row).max(initial=0.0)
            smallest = min(smallest, max(float(others), float(bumped)))
        return smallest


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

    def at(label, images=False):
        sec = label.sector
        return restricted_basis(wc, basis, label.delta, sec.num, sec.den, lams, images)

    diff = np.stack([at(lp, images=True) for lp in matrix.rows], axis=1)
    rows = {q: at(matrix.cols[q]) for q in {q for _, q in matrix.kinds}}
    pairs = []
    for (p, q), kind in matrix.kinds.items():
        if kind == "identity":
            diff[:, p] -= rows[q]
            continue
        diff[:, p] -= np.array([matrix.coefficients[p, q].value(lam) for lam in lam_samples]) * rows[q]
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
    restrict = partial(restricted_basis, wc, basis)
    g_minus, small_minus = localization_gram(wc.git, wc.A_minus, restrict, lams)
    g_plus, small_plus = localization_gram(wc.git, wc.A_plus, partial(restrict, images=True), lams)
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
