"""GIT data, chamber/anticone/box combinatorics, and wall-crossing data.

Indices into the character list are 0-based throughout.  A stability
condition omega selects the set of anticones A_omega = {I : omega is a
strictly positive combination of the characters indexed by I}; minimal
anticones (size r) index torus fixed points.  Crossing a single wall between
two adjacent chambers produces a WallCrossing record holding the wall normal,
the index partitions, the classification case and the splitting vectors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import mul

import numpy as np

from .lattice import (
    SingularBasis,
    _int_det,
    anticone_inverse,
    cleared,
    content,
    hermite_row_form,
    hermite_with_transform,
    int_inverse,
    integer_kernel_basis,
    intvec,
    line_split,
    matrix_rank,
    quotient_transversal,
    ratvec,
    solve_square,
    span_numerators,
)

# sup-norm radius of the smallest-first rule in wall_frame; past it the frame
# is constructed
WALL_SEARCH_RADIUS = 24


class EmptyQuotient(ValueError):
    """Stability condition with {0..m-1} not an anticone: empty quotient."""


class NotDeligneMumford(ValueError):
    """Some anticone fails the spanning condition."""


class NotAdjacent(ValueError):
    """The two chambers do not share a facet."""


class NotCrepant(ValueError):
    """The character sum does not lie on the wall."""


class WallFrameError(ValueError):
    """No integral frame adapted to the wall exists.  The message names the
    side (wall, plus or minus) and the invariant that fails."""


# ---------------------------------------------------------------------------
# GIT data


@dataclass(frozen=True)
class GITData:
    """A torus rank r and m integer characters, given as rows of D."""

    r: int
    m: int
    D: tuple  # m rows, each an r-tuple of ints

    def __post_init__(self):
        if not (self.m >= self.r >= 1):
            raise ValueError("need m >= r >= 1")
        if len(self.D) != self.m or any(len(row) != self.r for row in self.D):
            raise ValueError("D must be an m x r integer matrix")
        object.__setattr__(self, "D", tuple(intvec(row) for row in self.D))
        if matrix_rank(self.D) != self.r:
            raise ValueError("characters must span the full rank-r lattice")


def make_git(D):
    D = tuple(tuple(row) for row in D)
    return GITData(r=len(D[0]), m=len(D), D=D)


# ---------------------------------------------------------------------------
# anticones


@dataclass(frozen=True)
class AnticoneSet:
    """All anticones of a validated stability condition.

    Only the minimal anticones are stored; validity guarantees the full set
    is their closure under enlargement.
    """

    m: int
    r: int
    minimal: tuple  # sorted tuple of sorted index tuples, each of size r

    def contains(self, I):
        I = frozenset(I)
        return any(set(d) <= I for d in self.minimal)

    @property
    def s_set(self):
        common = set(self.minimal[0])
        for d in self.minimal[1:]:
            common &= set(d)
        return tuple(sorted(common))


def _idot(a, b):
    return sum(map(mul, a, b))


@lru_cache(maxsize=256)
def _chamber_table(git):
    """(subsets, adj, top): the linearly independent r-subsets of the
    characters in lex order, as the rows of an integer array; the adjugates
    of their matrices (anticone_inverse, so shared with every other reader
    of an anticone basis), stacked read-only, in int64 when every entry fits
    and as Python ints otherwise; and the largest absolute adjugate entry.

    Row k of w @ adj holds the coordinates of w over subset k times its
    positive determinant, so it decides every cone test over the subset."""
    subsets, adjs = [], []
    for I in itertools.combinations(range(git.m), git.r):
        try:
            adjs.append(anticone_inverse(git.D, I)[0])
        except SingularBasis:
            continue
        subsets.append(I)
    top = max(abs(x) for adj in adjs for row in adj for x in row)
    table = np.array(subsets), np.array(adjs, dtype=np.int64 if _fits_int64(top, 1) else object)
    for a in table:
        a.flags.writeable = False  # shared by every caller
    return table + (top,)


def _table_coords(table, w):
    """w @ adj for an integer vector w and the chamber table: in int64 where
    no product or sum can overflow, else in Python ints."""
    _, adj, top = table
    if adj.dtype == np.int64 and _fits_int64(top, sum(map(abs, w))):
        return np.array(w, dtype=np.int64) @ adj
    return np.array(w, dtype=object) @ adj.astype(object)


def validate_stability(git, omega):
    """Check both stability assumptions and return the anticone set.

    Every anticone contains, by Caratheodory reduction, a linearly
    independent index set that is itself an anticone.  An independent set
    extends to an independent r-subset, so one integer product of the
    cleared omega with the chamber table's adjugates decides every such set:
    an index set I of size below r is an anticone exactly when omega has
    nonnegative coordinates, zero off I, over some independent r-subset
    containing I.  The first undersized anticone in size-then-lex order is
    therefore the smallest positive support of a nonnegative row with a
    zero, and the minimal anticones are the all-positive rows.
    """
    omega = ratvec(omega)
    if len(omega) != git.r:
        raise ValueError("omega has wrong dimension")
    table = _chamber_table(git)
    subsets = table[0]
    coords = _table_coords(table, cleared(omega)[1])
    positive = coords > 0
    if not (coords != 0).all():
        undersized = [tuple(subsets[k][positive[k]].tolist())
                      for k in np.flatnonzero((coords >= 0).all(axis=1) & ~positive.all(axis=1))]
        if undersized:
            I = min(undersized, key=lambda I: (len(I), I))
            raise NotDeligneMumford("Assumption(2) spanning fails for I=%s" % (set(I) or "{}",))
    minimal = tuple(map(tuple, subsets[positive.all(axis=1)].tolist()))
    if not minimal:
        raise EmptyQuotient("Assumption(1) fails: {0..m-1} is not an anticone")
    return AnticoneSet(m=git.m, r=git.r, minimal=minimal)


# ---------------------------------------------------------------------------
# sectors (box elements) and fixed points


@dataclass(frozen=True)
class SectorLabel:
    """A box class in integers: f in [0,1)^r is ``num`` over its order ``den``
    in lowest terms, with isotropy set ``I_f`` and pairings D_i . f as
    numerators over ``den``.  f and the age are Fraction views, for reports."""

    num: tuple
    den: int
    I_f: tuple
    pairings: tuple = field(compare=False)

    @property
    def is_zero(self):
        return not any(self.num)

    @cached_property
    def f(self):
        return tuple(Fraction(x, self.den) for x in self.num)

    @cached_property
    def age(self):
        return Fraction(sum(p % self.den for p in self.pairings), self.den)

    def phase(self, j):
        """frac(D_j . f) as the correctly rounded float (p mod den) / den."""
        return self.pairings[j] % self.den / self.den


def box_elements(git, omega):
    """All box classes of the stability condition, zero sector first, as a
    tuple.  They are enumerated once per GIT data and anticone set."""
    A = omega if isinstance(omega, AnticoneSet) else validate_stability(git, omega)
    return _box_classes(git, A)


@lru_cache(maxsize=256)
def _box_classes(git, A):
    """Every box class is supported on some minimal anticone's isotropy, so
    the enumeration runs over coset representatives per minimal anticone and
    dedupes them.  Over the anticone basis, with inverse adj / det, a class
    is f = (adj k mod det) / det, kept in lowest terms; its pairings are read
    modulo its order for the isotropy set.  Classes sort by f, zero first, on
    their numerators over the lcm of the orders."""
    seen = {}
    for delta in A.minimal:
        adj, det = anticone_inverse(git.D, delta)
        # classes f with all pairings integral correspond to pairing vectors
        # k = (D_i . f) modulo the image of the integer lattice, which is the
        # column span of the anticone matrix
        cols = [tuple(git.D[i][a] for i in delta) for a in range(git.r)]
        for k in quotient_transversal(cols):
            num = [_idot(row, k) % det for row in adj]
            g = gcd(det, *num)
            key = tuple(x // g for x in num), det // g
            if key in seen:
                continue
            num, den = key
            pairings = tuple(_idot(row, num) for row in git.D)
            I_f = tuple(i for i, p in enumerate(pairings) if p % den == 0)
            assert A.contains(I_f), "sector isotropy set must be an anticone"
            seen[key] = SectorLabel(num=num, den=den, I_f=I_f, pairings=pairings)
    top = lcm(*(den for _, den in seen))
    return tuple(sorted(seen.values(),
                        key=lambda s: (not s.is_zero, [x * (top // s.den) for x in s.num])))


@dataclass(frozen=True)
class FixedPointLabel:
    """A torus fixed point on the inertia stack: minimal anticone + sector."""

    delta: tuple
    sector: SectorLabel

    @property
    def f(self):
        return self.sector.f

    def __str__(self):
        """The label as reports and errors name it, f from the sector's integers."""
        sec = self.sector
        return "delta=%s f=%s" % (list(self.delta), [ratio_text(x, sec.den) for x in sec.num])


def ratio_text(num, den):
    """num / den for a positive den, in lowest terms as a Fraction prints it:
    "0", "2" or "-1/2"."""
    g = gcd(num, den)
    return "%d" % (num // g) if g == den else "%d/%d" % (num // g, den // g)


def fixed_point_labels(git, A):
    """All (delta, f) pairs, sorted: delta lex, zero sector first, then by f.

    The minimal anticones are sorted, and so are the box classes, zero
    sector first, so the double loop lists the labels in that order."""
    sectors = box_elements(git, A)
    return [FixedPointLabel(delta=delta, sector=sec) for delta in A.minimal
            for sec in sectors if all(i in sec.I_f for i in delta)]


# ---------------------------------------------------------------------------
# wall-crossing


@dataclass(frozen=True)
class WallCrossing:
    git: GITData
    omega_plus: tuple
    omega_minus: tuple
    A_plus: AnticoneSet
    A_minus: AnticoneSet
    e: tuple
    pairings: tuple  # the integers D_i . e, one per character
    M_plus: tuple
    M_minus: tuple
    M_zero: tuple
    S_plus: tuple
    S_minus: tuple
    S_zero: tuple
    case: str
    xi_plus: dict = field(hash=False)
    xi_minus: dict = field(hash=False)

    def pair_e(self, i):
        return self.pairings[i]

    @cached_property
    def labels_plus(self):
        """The plus fixed points in order, listed once per crossing."""
        return tuple(fixed_point_labels(self.git, self.A_plus))

    @cached_property
    def labels_minus(self):
        """The minus fixed points in order, listed once per crossing."""
        return tuple(fixed_point_labels(self.git, self.A_minus))

    @cached_property
    def sector_lines(self):
        """line_split of each fixed point's sector along e, once per crossing."""
        return {s: line_split(s.num, s.den, self.e) for s in {lab.sector for lab in self.labels_plus + self.labels_minus}}


@lru_cache(maxsize=256)
def _wall_hyperplanes(git):
    """The distinct candidate wall hyperplanes spanned by r-1 characters, as
    sorted primitive normals with first nonzero entry positive.

    Characters of rank r-1 extend to an independent r-subset of the chamber
    table, and the adjugate column of the added character is normal to the
    rest, so the normalized adjugate columns are exactly these normals.
    """
    cols = np.swapaxes(_chamber_table(git)[1], 1, 2).reshape(-1, git.r)
    g = np.gcd.reduce(cols, axis=1)  # nonzero: an adjugate is invertible
    first = cols[np.arange(len(cols)), (cols != 0).argmax(axis=1)]
    normals = cols // np.where(first > 0, g, -g)[:, None]
    return tuple(sorted(set(map(tuple, normals.tolist()))))


def _in_wall_cone(git, normal, point):
    """Whether the integer crossing point, on the hyperplane of the normal,
    lies in the closed cone of wall characters.  By Caratheodory an
    independent set of wall characters decides it, and it extends to an
    r-subset of the chamber table with exactly one off-wall character, over
    which the point has nonnegative coordinates (zero at that character);
    conversely such coordinates put the point in the cone."""
    table = _chamber_table(git)
    off = np.array([_idot(row, normal) != 0 for row in git.D])
    one_off = off[table[0]].sum(axis=1) == 1
    return bool((_table_coords(table, point)[one_off] >= 0).all(axis=1).any())


def _classify(S_plus, S_minus, M_plus, M_minus):
    S_plus, S_minus = set(S_plus), set(S_minus)
    cases = []
    if S_plus == S_minus and len(M_plus) >= 2 and len(M_minus) >= 2:
        cases.append("I")
    if S_plus < S_minus and S_minus - S_plus == set(M_minus) and len(M_minus) == 1 and len(M_plus) >= 2:
        cases.append("II-i")
    if S_minus < S_plus and S_plus - S_minus == set(M_plus) and len(M_plus) == 1 and len(M_minus) >= 2:
        cases.append("II-ii")
    if (
        len(M_plus) == 1
        and len(M_minus) == 1
        and S_plus - S_minus == set(M_plus)
        and S_minus - S_plus == set(M_minus)
    ):
        cases.append("III")
    if len(cases) != 1:
        raise NotAdjacent("wall-crossing does not satisfy the one-case classification: %s" % cases)
    return cases[0]


def _xi_vectors(git, A, S):
    """The splitting vectors xi_j = col / det as (col, det), j in S.

    xi_j pairs to 1 with D_j, to 0 with the other members of the minimal
    anticone whose fan cone contains the extended vector, and to minus the
    cone coefficients there.  Over a minimal anticone delta, with inverse
    adj / det, xi_j is the adjugate column of j over det, so the cone
    coefficients are integer sign tests.  Minimal anticones are scanned in
    lex order for a nonnegative representation; the relative-interior
    support makes the result canonical.
    """
    xi = {}
    for j in S:
        found = None
        for delta in A.minimal:
            # j lies in every minimal anticone, S being their intersection
            adj, det = anticone_inverse(git.D, delta)
            col = [row[delta.index(j)] for row in adj]
            if all(_idot(git.D[i], col) <= 0 for i in range(git.m) if i not in delta):
                found = tuple(col), det
                break
        if found is None:
            raise ValueError("no fan cone contains the extended vector for index %d" % j)
        xi[j] = found
    return xi


def wall_crossing(git, omega_plus, omega_minus):
    """Full wall-crossing record for two adjacent crepant chambers."""
    omega_plus, omega_minus = ratvec(omega_plus), ratvec(omega_minus)
    A_plus = validate_stability(git, omega_plus)
    A_minus = validate_stability(git, omega_minus)
    if set(A_plus.minimal) == set(A_minus.minimal):
        raise NotAdjacent("both stability conditions lie in the same chamber")

    # scan every candidate wall hyperplane for genuine crossings of the
    # segment from omega_plus to omega_minus; a crossing is genuine only if
    # the crossing point lies in the actual wall cone, not merely on the
    # hyperplane extension.  On the cleared endpoints w+ and w-, with
    # a = w+.n and b = w-.n of opposite signs, |b| w+ + |a| w- is a positive
    # multiple of the crossing point.
    (_, w_plus), (_, w_minus) = cleared(omega_plus), cleared(omega_minus)
    crossings = []
    for n in _wall_hyperplanes(git):
        a, b = _idot(w_plus, n), _idot(w_minus, n)
        if a * b < 0:
            point = tuple(abs(b) * x + abs(a) * y for x, y in zip(w_plus, w_minus))
            if _in_wall_cone(git, n, point):
                crossings.append(n)
    if len(crossings) != 1:
        raise NotAdjacent(
            "segment between the chambers crosses %d wall cones, need exactly 1" % len(crossings)
        )
    normal, = crossings
    e = normal if _idot(w_plus, normal) > 0 else tuple(-x for x in normal)

    pairings = tuple(_idot(row, e) for row in git.D)
    if sum(pairings) != 0:
        raise NotCrepant("sum of characters does not lie on the wall")

    M_plus = tuple(i for i in range(git.m) if pairings[i] > 0)
    M_minus = tuple(i for i in range(git.m) if pairings[i] < 0)
    M_zero = tuple(i for i in range(git.m) if pairings[i] == 0)
    if not M_plus or not M_minus:
        raise NotAdjacent("wall normal pairs with one sign only")
    S_plus = A_plus.s_set
    S_minus = A_minus.s_set
    S_zero = tuple(sorted(set(S_plus) & set(S_minus)))
    case = _classify(S_plus, S_minus, M_plus, M_minus)
    xi_plus = _xi_vectors(git, A_plus, S_plus)
    xi_minus = _xi_vectors(git, A_minus, S_minus)
    return WallCrossing(
        git=git,
        omega_plus=omega_plus,
        omega_minus=omega_minus,
        A_plus=A_plus,
        A_minus=A_minus,
        e=e,
        pairings=pairings,
        M_plus=M_plus,
        M_minus=M_minus,
        M_zero=M_zero,
        S_plus=S_plus,
        S_minus=S_minus,
        S_zero=S_zero,
        case=case,
        xi_plus=xi_plus,
        xi_minus=xi_minus,
    )


# ---------------------------------------------------------------------------
# next-to pairs


def anticones_next_to(wc, delta_plus, delta_minus):
    """Whether two minimal anticones share a wall facet across the crossing."""
    sp, sm = set(delta_plus), set(delta_minus)
    if len(sp & sm) != wc.git.r - 1:
        return False
    extra_p = (sp - sm).pop()
    extra_m = (sm - sp).pop()
    if any(wc.pair_e(i) != 0 for i in sp & sm):
        return False
    return wc.pair_e(extra_p) > 0 and wc.pair_e(extra_m) < 0


def plus_labels_across(wc):
    """The plus fixed points, in order, whose anticone is not a minus one."""
    minus = set(wc.A_minus.minimal)
    return [lp for lp in wc.labels_plus if lp.delta not in minus]


def _line_key(wc, sector):
    """The sector's class in Q^r / (Q e + Z^r): the numerators of line_split
    over the order, reduced by their common divisor with it."""
    _a, c = wc.sector_lines[sector]
    g = gcd(sector.den, *c)
    return tuple(x // g for x in c), sector.den // g


def next_to_cells(wc):
    """The next-to pairs of inertia fixed points across the wall, as
    positions (p, q) in wc.labels_plus and wc.labels_minus.

    Pairs are ordered like the plus labels and then like the minus labels;
    the anticones must be next to each other and the sectors must differ by
    a rational multiple of the wall normal modulo the cocharacter lattice,
    that is, have the same line class.
    """
    plus_min, minus_min = set(wc.A_plus.minimal), set(wc.A_minus.minimal)
    across = [d for d in wc.A_minus.minimal if d not in plus_min]
    by_class = {}
    for q, lm in enumerate(wc.labels_minus):
        if lm.delta not in plus_min:
            by_class.setdefault((lm.delta, _line_key(wc, lm.sector)), []).append(q)
    adjacent = {}
    out = []
    for p, lp in enumerate(wc.labels_plus):
        if lp.delta in minus_min:
            continue
        if lp.delta not in adjacent:
            adjacent[lp.delta] = [d for d in across if anticones_next_to(wc, lp.delta, d)]
        key = _line_key(wc, lp.sector)
        for delta in adjacent[lp.delta]:
            out += [(p, q) for q in by_class.get((delta, key), ())]
    return out


def next_to_pairs(wc):
    """All next-to pairs (plus label, minus label), in the order of
    next_to_cells."""
    plus, minus = wc.labels_plus, wc.labels_minus
    return [(plus[p], minus[q]) for p, q in next_to_cells(wc)]


def minus_lift_numerators(wc, sector_plus, sector_minus):
    """(s, n, a): the compatible minus lift f_plus + (a / s) e on integer
    numerators over s = lcm of the sectors' orders, a / s in [0, 1) the multiple
    of e by which they differ mod Z^r, from their line splits (it is linear)."""
    s = lcm(sector_plus.den, sector_minus.den)
    k_plus, k_minus = s // sector_plus.den, s // sector_minus.den
    (a_plus, c_plus), (a_minus, c_minus) = wc.sector_lines[sector_plus], wc.sector_lines[sector_minus]
    if any((y * k_minus - x * k_plus) % s for x, y in zip(c_plus, c_minus)):
        raise ValueError("sectors are not next to each other")
    a = (a_minus * k_minus - a_plus * k_plus) % s
    return s, tuple(x * k_plus + a * y for x, y in zip(sector_plus.num, wc.e)), a


def compatible_minus_lift(wc, label_plus, label_minus):
    """Lift of the minus sector with f_minus - f_plus a rational multiple of e."""
    s, n, _a = minus_lift_numerators(wc, label_plus.sector, label_minus.sector)
    return tuple(Fraction(x, s) for x in n)


# ---------------------------------------------------------------------------
# the secondary-moduli coordinate change


@dataclass(frozen=True)
class CoordinateChange:
    """Exponents of the chart transition between the two large-radius charts."""

    c: Fraction
    c_i: tuple
    A: int
    B: int


@dataclass(frozen=True)
class WallFrame:
    """Ordered integral bases adapted to the wall on both sides.

    The first r-1 vectors are shared and lie on the wall; the last vector on
    each side is the unique off-wall basis vector.
    """

    sfp_plus: tuple
    sfp_minus: tuple
    change: CoordinateChange


def _extended_rows(git, omega):
    """(s, H): the extended lattice, generated by Z^r and the box classes, as
    the Hermite form H of the rows s e_i and s adj / det over the minimal
    anticones, s = lcm(det).  The box classes at delta generate the columns
    of the anticone's inverse adj / det modulo Z^r, and the Hermite form of
    a lattice is canonical, so no class is enumerated."""
    A = omega if isinstance(omega, AnticoneSet) else validate_stability(git, omega)
    inverses = [anticone_inverse(git.D, delta) for delta in A.minimal]
    s = lcm(*(det for _, det in inverses))
    gens = [tuple(s * (i == j) for j in range(git.r)) for i in range(git.r)]
    gens += [tuple(x * (s // det) for x in col) for adj, det in inverses for col in zip(*adj)]
    return s, tuple(hermite_row_form(gens))


def _dual_of_extended(git, A):
    """The integer Hermite rows of the dual of the extended lattice: the
    columns of s adj / det, with H / s its basis and adj / det the integer
    inverse of H.  The extended lattice holds Z^r, so its dual lies in Z^r
    and the division is exact."""
    s, H = _extended_rows(git, A)
    adj, det = int_inverse(H)
    assert all(s * x % det == 0 for row in adj for x in row), "dual lattice is not integral"
    return tuple(hermite_row_form([[s * x // det for x in col] for col in zip(*adj)]))


def _saturated(coord_rows):
    """Whether k integer vectors extend to a lattice basis: the gcd of their
    maximal minors, which is the product of the Hermite pivots of their
    transpose, is 1, so they have rank k and every pivot is 1."""
    H = hermite_row_form(list(zip(*coord_rows)))
    return len(H) == len(coord_rows) and all(H[i][i] == 1 for i in range(len(H)))


def _coords_in(basis, v):
    """The integer coordinates of the integer vector v over independent
    integer rows; ValueError when v is not in the lattice they span."""
    c, d = span_numerators(basis, v)
    if any(x % d for x in c):
        raise ValueError("%r is not in the lattice" % (v,))
    return tuple(x // d for x in c)


def _combination(coeffs, rows):
    """sum_t coeffs[t] rows[t] for integer coefficients and rows."""
    return tuple(sum(k * row[a] for k, row in zip(coeffs, rows)) for a in range(len(rows[0])))


def _constrained_sublattice(dual, conditions):
    """Basis (as ambient vectors) of the dual-lattice points annihilated by
    the given integer functionals."""
    cond_rows = [[_idot(row, c) for row in dual] for c in conditions]
    return [_combination(k, dual) for k in integer_kernel_basis(cond_rows, len(dual))]


# The searches of wall_frame run over integer coordinates k on a basis of a
# sublattice, and each acceptance test is compiled once per call into integer
# rows: N k >= 0 for the nef cones, E.k for the side of the wall, and L.k for
# the determinant of the wall vectors completed by the candidate.


def _nef_rows(git, anticone_sets, gens):
    """Integer rows N with N k >= 0 exactly when sum_t k_t gens[t] lies in the
    closed nef cone of every given anticone set: one row per anticone
    coordinate of the generators over every minimal anticone, an adjugate
    column paired with the generators (det > 0 scales it away), divided by
    its content; zero and repeated rows are dropped."""
    rows = []
    for delta in dict.fromkeys(delta for A in anticone_sets for delta in A.minimal):
        adj, _ = anticone_inverse(git.D, delta)
        for col in zip(*adj):
            row = [_idot(g, col) for g in gens]
            g = content(row)
            if g:
                rows.append(tuple(x // g for x in row))
    return list(dict.fromkeys(rows))


def _fits_int64(top, reach):
    """Whether integers of absolute value at most ``top``, applied to integer
    vectors of l1 norm at most ``reach``, give only products and sums that
    int64 holds."""
    return top * reach < 2 ** 62


def _int_rows(rows, width, reach):
    """Integer rows as an array: int64 when no product with a vector of l1
    norm at most ``reach`` can overflow it, Python ints otherwise."""
    top = max((abs(x) for row in rows for x in row), default=0)
    return np.array(rows, dtype=np.int64 if _fits_int64(top, reach) else object).reshape(len(rows), width)


def _box(radius, n):
    """The integer vectors of length n and sup norm at most ``radius``, in
    lex order, as the rows of an array."""
    side = 2 * radius + 1
    return np.indices((side,) * n).reshape(n, side ** n).T - radius


def _level_one(L):
    """An integer vector k with L.k = 1, or None when gcd(L) != 1."""
    H, U = hermite_with_transform([[x] for x in L])
    return U[0] if H[0] == (1,) else None


def _lift(N, v0, g):
    """v0 + t g for the smallest integer t with N (v0 + t g) >= 0.  The rows
    with N g = 0 must already hold at v0."""
    t = max((-(_idot(n, v0) // _idot(n, g)) for n in N if _idot(n, g) > 0), default=0)
    v = tuple(a + t * b for a, b in zip(v0, g))
    assert all(_idot(n, v) >= 0 for n in N), "lifted vector is not nef"
    return v


def _first_basis(pool, need):
    """The first tuple of pool rows, in lex order of pool indices, that is a
    basis of Z^need, every prefix extending to one; None when there is none."""

    def extend(chosen):
        if len(chosen) == need - 1:
            # det(chosen + [k]) is linear in k: one cofactor row
            cof = [(-1) ** (need - 1 + j) * _int_det([row[:j] + row[j + 1:] for row in chosen])
                   for j in range(need)]
            det = pool @ _int_rows([cof], need, need * WALL_SEARCH_RADIUS)[0]
            hit = np.flatnonzero(np.abs(det) == 1)
            return chosen + [tuple(int(x) for x in pool[hit[0]])] if hit.size else None
        for k in pool:
            rows = chosen + [tuple(int(x) for x in k)]
            if _saturated(rows):
                found = extend(rows)
                if found is not None:
                    return found
        return None

    return extend([])


def _search_wall(N, ell):
    """Coordinates of the wall basis by the smallest-first rule: the accepted
    k (k != 0, N k >= 0) pooled by sup-norm radius, then lex order, and the
    first basis of Z^ell in the pool at the smallest radius that holds one.
    None past WALL_SEARCH_RADIUS.  For ell = 1 only k = +-1 is a basis, so
    radius 1 is complete."""
    Na = _int_rows(N, ell, ell * WALL_SEARCH_RADIUS)
    shells = []
    for radius in range(1, (1 if ell == 1 else WALL_SEARCH_RADIUS) + 1):
        box = _box(radius, ell)
        shell = box[np.abs(box).max(axis=1) == radius]
        shells.append(shell[(shell @ Na.T >= 0).all(axis=1)])
        found = _first_basis(np.concatenate(shells), ell)
        if found is not None:
            return found
    return None


def _construct_wall(N, ell):
    """A wall basis where the rule finds none: for ell = 2, two consecutive
    Hilbert-basis vectors of the 2-D cone {k : N k >= 0}, namely its ray u
    with the cone counterclockwise of it, and the cone's first lattice point
    h on the line det(u, h) = 1 (Cox-Little-Schenck, Toric Varieties, 10.2).
    Raises WallFrameError when the cone has dimension < ell."""
    if ell == 1:
        raise WallFrameError("wall: the common facet cone has dimension < 1")
    if ell > 2:
        raise WallFrameError("wall: no basis within radius %d, and past it the "
                             "construction covers facets of rank <= 2" % WALL_SEARCH_RADIUS)
    # a failed search leaves no plane or half-plane, whose unit vectors lie
    # at radius 1; a 2-D cone is then pointed and its two rays are normals
    # of its rows
    rays = {c for a, b in N for c in ((-b, a), (b, -a)) if all(_idot(n, c) >= 0 for n in N)}
    if len(rays) != 2 or _int_det(list(rays)) == 0:
        raise WallFrameError("wall: the common facet cone has dimension < 2")
    u, w = sorted(rays)
    if _int_det([u, w]) < 0:
        u = w
    return [u, _lift(N, _level_one((-u[1], u[0])), u)]


def _search_last(N, E, L, sign):
    """Coordinates of the last vector by the smallest-first rule: the first
    k by sup-norm radius, then lex order, with sign * E.k > 0, N k >= 0 and
    L.k = +-1.  (A side's nef cone lies on its side of the wall, so the sign
    test only excludes the wall.)  L.k = +-1 is solved for one coordinate,
    so a radius costs a box of the others.  None past WALL_SEARCH_RADIUS."""
    n = len(L)
    p = min((c for c in range(n) if L[c]), key=lambda c: abs(L[c]))
    others = [c for c in range(n) if c != p]
    reach = n * WALL_SEARCH_RADIUS
    Lo = _int_rows([[L[c] for c in others]], n - 1, reach)[0]
    Na, Ea = _int_rows(N, n, reach), _int_rows([E], n, reach)[0]
    for radius in range(1, WALL_SEARCH_RADIUS + 1):
        box = _box(radius, n - 1).astype(Lo.dtype, copy=False)
        rest = box @ Lo
        parts = []
        for s in (1, -1):
            ok = (s - rest) % L[p] == 0
            parts.append(np.insert(box[ok], p, (s - rest[ok]) // L[p], axis=1))
        k = np.concatenate(parts)
        k = k[np.abs(k).max(axis=1) == radius]
        k = k[(sign * (k @ Ea) > 0) & (k @ Na.T >= 0).all(axis=1)]
        if len(k):
            return tuple(int(x) for x in k[np.lexsort(k.T[::-1])[0]])
    return None


def _last_vector(wc, side, dual, wall, facet_point):
    """The off-wall basis vector of one side: the side's extended character
    when it has one beyond the shared ones, else a nef point of the side
    sublattice completing the wall vectors to a basis, by the rule and, past
    its radius, by construction."""
    git = wc.git
    A, S, xi = (wc.A_plus, wc.S_plus, wc.xi_plus) if side == "plus" else (wc.A_minus, wc.S_minus, wc.xi_minus)
    extra = sorted(set(S) - set(wc.S_zero))
    if extra:
        v = git.D[extra[0]]
        coords = [_coords_in(dual, w) for w in wall + [v]]
        assert abs(_int_det(coords)) == 1, "extended character does not complete a basis"
        return v
    # the ambient-side sublattice: annihilated by the side's splitting
    # vectors only; the off-wall completion lives here
    gens = _constrained_sublattice(dual, [xi[i][0] for i in S])
    wall_coords = [_coords_in(dual, w) for w in wall]
    L = [_int_det(wall_coords + [_coords_in(dual, g)]) for g in gens]
    unit = _level_one(L)
    if unit is None:
        raise WallFrameError("%s: the wall vectors complete to no basis of the side lattice "
                             "(gcd of the completing determinants is %d)" % (side, content(L)))
    N = _nef_rows(git, (A,), gens)
    E = [_idot(wc.e, g) for g in gens]
    sign = 1 if side == "plus" else -1
    k = _search_last(N, E, L, sign)
    if k is None:
        # v0 + t g with L.v0 = +-1 on this side of the wall and g the facet
        # point; every nef row vanishing at g vanishes on the facet, so it
        # is a multiple of E and v0 meets it unless the side's nef cone
        # has no ray on this side of the wall
        v0 = unit if sign * _idot(E, unit) > 0 else tuple(-x for x in unit)
        g = _coords_in(gens, facet_point)
        if any(_idot(n, g) == 0 and _idot(n, v0) < 0 for n in N):
            raise WallFrameError("%s: the nef cone has no ray on this side of the wall "
                                 "in the side lattice" % side)
        k = _lift(N, v0, g)
        assert abs(_idot(L, k)) == 1 and sign * _idot(E, k) > 0
    return _combination(k, gens)


def wall_frame(wc):
    """Construct the adapted integral bases and the chart transition.

    Wall vectors come first and are shared by both sides: the extended
    characters common to both, then integral points of the shared wall
    sublattice lying on the closure of the common facet, chosen smallest
    first with backtracking.  The final off-wall vector on each side is the
    extended character when one exists, else the smallest nef integral
    point completing a basis.  "Smallest" is by sup-norm radius, then lex
    order, up to WALL_SEARCH_RADIUS; past it the vectors are constructed.
    Raises WallFrameError when no such frame exists.
    """
    git = wc.git
    # the crossing's anticone sets, already validated, give the box classes
    dual_plus = _dual_of_extended(git, wc.A_plus)
    dual_minus = _dual_of_extended(git, wc.A_minus)

    seed = [git.D[j] for j in wc.S_zero]
    ell = git.r - 1 - len(wc.S_zero)

    # the shared facet's sublattice: on the wall, annihilated by every
    # splitting vector of both sides
    conditions = [wc.e]
    conditions += [wc.xi_plus[i][0] for i in wc.S_plus]
    conditions += [wc.xi_minus[i][0] for i in wc.S_minus]
    facet_gens = _constrained_sublattice(dual_plus, conditions)
    assert len(facet_gens) == ell, "facet sublattice has unexpected rank"

    found = []
    if ell:
        # wall vectors lie in both duals; facet_gens lie in the plus dual,
        # and the k landing in the minus dual form a sublattice of Z^ell
        # that holds a basis of Z^ell only when it is all of Z^ell
        try:
            for g in facet_gens:
                _coords_in(dual_minus, g)
        except ValueError:
            raise WallFrameError("wall: the facet lattice is not inside the minus dual lattice, "
                                 "so no wall basis lies in both") from None
        N = _nef_rows(git, (wc.A_plus, wc.A_minus), facet_gens)
        ks = _search_wall(N, ell) or _construct_wall(N, ell)
        found = [_combination(k, facet_gens) for k in ks]
    wall = seed + found

    if wall:
        for dual in (dual_plus, dual_minus):
            coords = [_coords_in(dual, w) for w in wall]
            assert _saturated(coords)

    # the sum of the found wall vectors lies in the relative interior of the
    # common facet cone
    facet_point = tuple(map(sum, zip(*found))) if found else (0,) * git.r
    last_plus = _last_vector(wc, "plus", dual_plus, wall, facet_point)
    last_minus = _last_vector(wc, "minus", dual_minus, wall, facet_point)
    sfp_plus = tuple(wall) + (last_plus,)
    sfp_minus = tuple(wall) + (last_minus,)

    # last_plus = sum_i c_i * wall_i - c * last_minus
    rows = [[w[k] for w in list(wall) + [last_minus]] for k in range(git.r)]
    coeffs = solve_square(rows, list(last_plus))
    c = -coeffs[-1]
    assert c > 0, "transition exponent must be positive"
    c_i = tuple(coeffs[:-1])
    B = lcm(c.denominator, *(x.denominator for x in c_i))
    change = CoordinateChange(c=c, c_i=c_i, A=int(c * B), B=B)
    return WallFrame(sfp_plus=sfp_plus, sfp_minus=sfp_minus, change=change)
