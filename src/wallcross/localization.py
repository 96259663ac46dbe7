"""Exact fixed-point restrictions of degree-two equivariant classes.

Every restriction is an exact linear form in the torus parameters: integer
numerators over the isotropy order det D_delta of its fixed point.  A form
becomes floats once (``LinearForm.floats``) and text only when printed.
The central identity here is the wall transition of restricted divisor
classes between next-to fixed points, an exact equality of forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd

from .gitfan import anticones_next_to, wall_frame
from .lattice import anticone_inverse


class NotAdjacentAnticones(ValueError):
    """The two minimal anticones are not next to each other."""


@dataclass(frozen=True)
class LinearForm:
    """Exact rational linear combination of the torus parameters, num[i] / den
    times L_i.  Equality compares numerators and denominator, so it is
    equality of values between forms over one denominator."""

    num: tuple  # m ints
    den: int = 1  # positive

    @property
    def is_zero(self):
        return not any(self.num)

    @cached_property
    def floats(self):
        """The coefficients as floats, each the correctly rounded num / den."""
        return tuple(n / self.den for n in self.num)

    @cached_property
    def _nonzero(self):
        """(index, complex coefficient) of every nonzero coefficient."""
        return tuple((i, complex(a)) for i, a in enumerate(self.floats) if self.num[i])

    def __call__(self, lam):
        return sum((a * lam[i] for i, a in self._nonzero), 0j)

    def __str__(self):
        return self._text

    @cached_property
    def _text(self):
        """The form as text, built once: forms are shared through restrict_u."""
        parts = []
        for i, n in enumerate(self.num):
            if n:
                g = gcd(n, self.den)
                p, q = abs(n) // g, self.den // g
                scale = "" if p == q else "%d*" % p if q == 1 else "%d/%d*" % (p, q)
                parts.append("%s%sL%d" % ("+" if n > 0 else "-", scale, i + 1))
        return "".join(parts).lstrip("+") or "0"


def c0_form(m):
    """The constant shift: the sum of all torus parameters."""
    return LinearForm((1,) * m)


def _theta_numerators(git, delta, p):
    """(numerators, det) of theta(p) at ``delta`` for an integer character p:
    with p = sum_t c_t D[delta[t]], theta(p) restricts to -sum_t c_t L_delta[t],
    and the c_t are the adjugate pairings of p over det."""
    adj, det = anticone_inverse(git.D, delta)
    num = [0] * git.m
    for t, i in enumerate(delta):
        num[i] = -sum(x * row[t] for x, row in zip(p, adj))
    return num, det


@lru_cache(maxsize=1024)
def restrict_u(git, delta):
    """Restrictions of all divisor classes at the fixed point of ``delta``.

    u_j(delta) = L_j + theta(D_j), over the isotropy order det.  The form
    vanishes exactly when j lies in delta.
    """
    out = []
    for j in range(git.m):
        num, det = _theta_numerators(git, delta, git.D[j])
        num[j] += det
        out.append(LinearForm(tuple(num), det))
    for j, form in enumerate(out):
        assert form.is_zero == (j in delta)
    return tuple(out)


def theta_restrict(git, delta, p):
    """Restriction of the splitting class of the integer character p at
    ``delta``, over the isotropy order.

    theta(D_j) restricts to u_j(delta) - L_j, so for p = sum c_i D_i over the
    anticone basis the restriction is -sum c_i L_i.
    """
    num, det = _theta_numerators(git, delta, p)
    return LinearForm(tuple(num), det)


def rho_restrict(git, delta):
    """Restriction of the first Chern class of the tangent bundle."""
    u = restrict_u(git, delta)
    return LinearForm(tuple(sum(u[j].num[i] for j in range(git.m) if j not in delta)
                            for i in range(git.m)), u[0].den)


def verify_weight_transition(wc, delta_plus, delta_minus, j):
    """Exact check of the wall transition of restricted divisor classes.

    u_j(delta_plus) equals u_j(delta_minus) plus (D_j.e / D_{j-}.e) times
    u_{j-}(delta_plus), as linear forms; compared on numerators cleared by
    D_{j-}.e times both isotropy orders.
    """
    if not anticones_next_to(wc, delta_plus, delta_minus):
        raise NotAdjacentAnticones("%s | %s fails" % (delta_plus, delta_minus))
    j_minus = next(i for i in delta_minus if i not in delta_plus)
    u_plus = restrict_u(wc.git, delta_plus)
    u_minus = restrict_u(wc.git, delta_minus)
    a, b, c = u_plus[j], u_minus[j], u_plus[j_minus]
    assert a.den == c.den, "forms at one fixed point share its isotropy order"
    p, p_minus = wc.pair_e(j), wc.pair_e(j_minus)
    return all(x * p_minus * b.den == y * p_minus * a.den + p * z * b.den
               for x, y, z in zip(a.num, b.num, c.num))


@dataclass(frozen=True)
class SigmaRestriction:
    """Fixed-point restriction of the pullback shift: one form per log
    coordinate, plus the constant form."""

    log_coeffs: tuple  # r LinearForms, one per chart coordinate
    constant: LinearForm


def sigma_restrict(wc, delta, side):
    """Restriction of the shifted pullback class at a fixed point.

    The coefficient of each log coordinate is the restriction of the
    splitting class of the corresponding frame vector; the constant part is
    the sum of all torus parameters.
    """
    frame = wall_frame(wc)
    sfp = frame.sfp_plus if side == "plus" else frame.sfp_minus
    forms = tuple(theta_restrict(wc.git, delta, p) for p in sfp)
    return SigmaRestriction(log_coeffs=forms, constant=c0_form(wc.git.m))


@dataclass(frozen=True)
class NormalWeights:
    """Tangent data at an inertia fixed point.

    ``fixed`` lists (j, u_j(delta)) over the sector's own tangent directions;
    ``moving`` lists (j, u_j(delta), age contribution) over the rest, the age
    contribution frac(D_j . f) as (numerator, order of the sector).
    """

    fixed: tuple
    moving: tuple


def normal_weights(git, label):
    u = restrict_u(git, label.delta)
    sec = label.sector
    fixed = []
    moving = []
    for j in range(git.m):
        if j in label.delta:
            continue
        if j in sec.I_f:
            fixed.append((j, u[j]))
        else:
            moving.append((j, u[j], (sec.pairings[j] % sec.den, sec.den)))
    for _, form in fixed:
        assert not form.is_zero
    return NormalWeights(fixed=tuple(fixed), moving=tuple(moving))
