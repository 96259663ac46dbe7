"""Exact fixed-point restrictions of degree-two equivariant classes.

Every restriction is an exact linear form in the torus parameters; numbers
appear only when a form is evaluated downstream.  The central identity here
is the wall transition of restricted divisor classes between next-to fixed
points, which holds as an exact equality of forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .gitfan import anticones_next_to, wall_frame
from .lattice import anticone_coords, express_in_anticone_basis, frac_part


class NotAdjacentAnticones(ValueError):
    """The two minimal anticones are not next to each other."""


@dataclass(frozen=True)
class LinearForm:
    """Exact rational linear combination of the torus parameters."""

    coeffs: tuple  # m Fractions

    def __add__(self, other):
        return LinearForm(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return LinearForm(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, c):
        c = Fraction(c)
        return LinearForm(tuple(c * a for a in self.coeffs))

    @property
    def is_zero(self):
        return all(a == 0 for a in self.coeffs)

    @cached_property
    def _nonzero(self):
        """(index, complex coefficient) of every nonzero coefficient."""
        return tuple((i, complex(a)) for i, a in enumerate(self.coeffs) if a != 0)

    def __call__(self, lam):
        return sum((a * lam[i] for i, a in self._nonzero), 0j)

    def __str__(self):
        return self._text

    @cached_property
    def _text(self):
        """The form as text, built once: forms are shared through restrict_u."""
        parts = []
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            name = "L%d" % (i + 1)
            if a == 1:
                parts.append("+" + name)
            elif a == -1:
                parts.append("-" + name)
            else:
                parts.append(("+" if a > 0 else "-") + "%s*%s" % (abs(a), name))
        if not parts:
            return "0"
        out = "".join(parts)
        return out[1:] if out.startswith("+") else out


def zero_form(m):
    return LinearForm((Fraction(0),) * m)


def c0_form(m):
    """The constant shift: the sum of all torus parameters."""
    return LinearForm((Fraction(1),) * m)


@lru_cache(maxsize=None)
def restrict_u(git, delta):
    """Restrictions of all divisor classes at the fixed point of ``delta``.

    u_j(delta) = L_j - sum_i c_i L_i where D_j = sum_{i in delta} c_i D_i.
    The form vanishes exactly when j lies in delta.
    """
    out = []
    for j in range(git.m):
        c = express_in_anticone_basis(git.D, delta, j)
        coeffs = [Fraction(0)] * git.m
        coeffs[j] += 1
        for i, ci in zip(delta, c):
            coeffs[i] -= ci
        out.append(LinearForm(tuple(coeffs)))
    for j, form in enumerate(out):
        assert form.is_zero == (j in delta)
    return tuple(out)


def theta_restrict(git, delta, p):
    """Restriction of the splitting class of the character p at ``delta``.

    theta(D_j) restricts to u_j(delta) - L_j, so for p = sum c_i D_i over the
    anticone basis the restriction is -sum c_i L_i.
    """
    coeffs = [Fraction(0)] * git.m
    for i, ci in zip(delta, anticone_coords(git.D, delta, p)):
        coeffs[i] -= ci
    return LinearForm(tuple(coeffs))


def rho_restrict(git, delta):
    """Restriction of the first Chern class of the tangent bundle."""
    u = restrict_u(git, delta)
    total = zero_form(git.m)
    for j in range(git.m):
        if j not in delta:
            total = total + u[j]
    return total


def verify_weight_transition(wc, delta_plus, delta_minus, j):
    """Exact check of the wall transition of restricted divisor classes.

    u_j(delta_plus) equals u_j(delta_minus) plus (D_j.e / D_{j-}.e) times
    u_{j-}(delta_plus), as linear forms.
    """
    if not anticones_next_to(wc, delta_plus, delta_minus):
        raise NotAdjacentAnticones("%s | %s fails" % (delta_plus, delta_minus))
    j_minus = next(i for i in delta_minus if i not in delta_plus)
    u_plus = restrict_u(wc.git, delta_plus)
    u_minus = restrict_u(wc.git, delta_minus)
    ratio = Fraction(wc.pair_e(j), wc.pair_e(j_minus))
    lhs = u_plus[j]
    rhs = u_minus[j] + u_plus[j_minus].scale(ratio)
    return lhs == rhs


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
    ``moving`` lists (j, u_j(delta), age contribution) over the rest.
    """

    fixed: tuple
    moving: tuple


def normal_weights(git, label):
    u = restrict_u(git, label.delta)
    fixed = []
    moving = []
    for j in range(git.m):
        if j in label.delta:
            continue
        if j in label.sector.I_f:
            fixed.append((j, u[j]))
        else:
            moving.append((j, u[j], frac_part(label.sector.pairings[j])))
    for _, form in fixed:
        assert not form.is_zero
    return NormalWeights(fixed=tuple(fixed), moving=tuple(moving))
