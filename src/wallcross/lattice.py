"""Exact linear algebra over character and cocharacter lattices.

Everything here is exact and no floating point enters any computation.  One
integer kernel does all elimination: Bareiss determinants, one cached
adjugate over a positive determinant per basis, and Hermite forms with their
unimodular transforms.  Rational matrices are cleared by their common
denominator before they reach it, so ranks, determinants, solves and kernels
never eliminate over Fractions, and no rational inverse is ever formed.
Integer results (kernels, wall normals, Hermite rows, span numerators,
adjugates, line classes and multiples of integer numerators) leave as int
tuples; rational ones (anticone coordinates, solves, lattices generated by
rational vectors) as tuples of ``fractions.Fraction``.  Downstream, a box
class, a restricted form, a sector or coefficient lift and its shift, xi, a
base exponent and an exact Gamma ratio are integer numerators over one
denominator, and a phase is read as (p mod den) / den.  Fraction is left
only at the boundary: parsed configs, the f and age reports print, printed
forms, the compatible minus lift, (c, c_i), the conifold point and the
reduced phases of restricted terms.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


class SingularBasis(ValueError):
    """The selected characters do not form a basis."""


class NotAHyperplane(ValueError):
    """Wall characters do not span a hyperplane."""


# ---------------------------------------------------------------------------
# vectors


def _q(x):
    """x as a Fraction; an existing Fraction is returned as is, since the
    constructor's Rational check costs more than the arithmetic here."""
    return x if type(x) is Fraction else Fraction(x)


def ratvec(entries):
    return tuple(map(_q, entries))


def intvec(entries):
    out = []
    for x in entries:
        f = _q(x)
        if f.denominator != 1:
            raise ValueError("non-integral entry %r" % (x,))
        out.append(f.numerator)
    return tuple(out)


def vdot(a, b):
    assert len(a) == len(b), "dimension mismatch"
    return sum((_q(x) * _q(y) for x, y in zip(a, b)), Fraction(0))


# ---------------------------------------------------------------------------
# ranks, determinants and solves, all on the integer kernel below


def _cleared_rows(rows):
    """(s, s M) for the rational matrix M with the given rows: s is the
    common denominator of the entries, so s M is an integer matrix."""
    rows = [ratvec(row) for row in rows]
    s = lcm(*(x.denominator for row in rows for x in row))
    return s, tuple(tuple(x.numerator * (s // x.denominator) for x in row) for row in rows)


def matrix_rank(rows):
    """The number of nonzero rows in the Hermite form of the cleared rows."""
    return len(hermite_row_form(_cleared_rows(rows)[1]))


def _det(rows):
    """The determinant of a square rational matrix M: det(s M) / s^n."""
    s, M = _cleared_rows(rows)
    return Fraction(_int_det(M), s ** len(M))


def solve_square(rows, rhs):
    """Solve M x = rhs exactly for a square matrix given by rows: with s M
    and t rhs cleared, x = s adj (t rhs) / (t det) from the cached integer
    inverse adj / det of s M.  Raises SingularBasis when M is singular."""
    n = len(rows)
    assert all(len(r) == n for r in rows) and len(rhs) == n
    s, M = _cleared_rows(rows)
    t, (b,) = _cleared_rows([rhs])
    adj, det = int_inverse(M)
    return tuple(Fraction(s * sum(a * x for a, x in zip(row, b)), t * det) for row in adj)


def solve_rectangular(rows, rhs):
    """The exact solution of M x = rhs, M given by rows with independent
    columns; None when rhs is not in their span or they are dependent."""
    _, cols = _cleared_rows(list(zip(*rows)) + [rhs])
    found = span_numerators(cols[:-1], cols[-1])
    return None if found is None else tuple(Fraction(c, found[1]) for c in found[0])


def _int_det(mat):
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination."""
    a = [[int(x) for x in row] for row in mat]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def _adjugate(rows):
    """(adj, det) of a square integer matrix M, adj M = M adj = det I, with
    both negated when det < 0 so that det >= 0."""
    n = len(rows)
    adj = [[(-1) ** (i + j) * _int_det([row[:i] + row[i + 1:] for k, row in enumerate(rows) if k != j])
            for j in range(n)] for i in range(n)]
    det = sum(rows[0][j] * adj[j][0] for j in range(n))
    if det < 0:
        adj, det = [[-x for x in row] for row in adj], -det
    return tuple(map(tuple, adj)), det


@lru_cache(maxsize=4096)
def int_inverse(rows):
    """(adj, det) with M^-1 = adj / det and det > 0, for the square integer
    matrix M whose rows are ``rows``.

    Cached per basis: every repeated solve against a fixed basis is an
    integer mat-vec product with adj.  Raises SingularBasis when the rows are
    dependent.
    """
    adj, det = _adjugate(rows)
    if det == 0:
        raise SingularBasis("matrix is singular")
    return adj, det


@lru_cache(maxsize=256)
def _span_minor(rows):
    """(cols, adj, det): the first columns, in lex order, on which k integer
    rows have a nonzero k x k minor, with that minor's adjugate and positive
    determinant; None when the rows are dependent."""
    for cols in itertools.combinations(range(len(rows[0])), len(rows)):
        adj, det = _adjugate([[row[c] for c in cols] for row in rows])
        if det:
            return cols, adj, det
    return None


def span_numerators(rows, w):
    """(c, d) with w = sum_t (c_t / d) rows[t], c integral and d > 0, for
    integer rows and an integer vector w; None when the rows are dependent or
    w is not in their span.
    """
    if not rows:
        return None if any(w) else ((), 1)
    found = _span_minor(tuple(rows))
    if found is None:
        return None
    cols, adj, det = found
    c = tuple(sum(w[a] * adj[j][t] for j, a in enumerate(cols)) for t in range(len(rows)))
    for a in range(len(w)):
        if a not in cols and sum(x * row[a] for x, row in zip(c, rows)) != det * w[a]:
            return None
    return c, det


def right_kernel(rows, width):
    """A basis of the integer points of {x : row . x = 0 for every row}, for
    rational rows; it also spans the rational kernel."""
    return integer_kernel_basis([cleared(row)[1] for row in rows], width)


def content(v):
    return gcd(*map(int, v))


def cleared(v):
    """(s, s v) for a rational vector v, s the common denominator of its
    entries: s v is an integer vector on the same ray, so in the same cones."""
    s, (n,) = _cleared_rows([v])
    return s, n


# ---------------------------------------------------------------------------
# the operations used by the GIT layer


def anticone_inverse(D, delta):
    """(adj, det) of the basis {D[i] : i in delta}: its inverse is adj / det
    with det > 0, the order of the isotropy group.  Cached per basis.

    Raises SingularBasis when the delta-submatrix is singular, which signals
    that ``delta`` is not a valid minimal anticone.
    """
    return int_inverse(tuple(tuple(D[i]) for i in delta))


def anticone_coords(D, delta, p):
    """The tuple c (ordered like ``delta``) with p = sum_t c_t D[delta[t]]."""
    adj, det = anticone_inverse(D, delta)
    return tuple(Fraction(sum(x * row[t] for x, row in zip(p, adj)), det) for t in range(len(delta)))


def express_in_anticone_basis(D, delta, j):
    """Coordinates of D[j] in the basis {D[i] : i in delta}.

    Returns the tuple c (ordered like ``delta``) with D[j] = sum c_i D[i];
    raises SingularBasis for a singular delta-submatrix.
    """
    assert len(delta) == len(D[delta[0]]), "need exactly r characters for a basis"
    return anticone_coords(D, delta, D[j])


def primitive_wall_normal(wall_chars, positive_side):
    """Primitive integer normal of the hyperplane spanned by ``wall_chars``.

    The sign is fixed so that the normal pairs positively with
    ``positive_side``.
    """
    kern = right_kernel(wall_chars, len(positive_side))
    if len(kern) != 1:
        raise NotAHyperplane("wall characters span a subspace of dimension != r-1")
    # the saturated kernel line is spanned by a primitive vector
    e = kern[0]
    s = vdot(positive_side, e)
    if s == 0:
        raise NotAHyperplane("positive side lies on the wall")
    return e if s > 0 else tuple(-x for x in e)


@lru_cache(maxsize=256)
def _line_transform(e):
    """A unimodular U with U e = e_1: the Hermite transform of e as a column.
    Raises ValueError unless e is a primitive integer vector."""
    H, U = hermite_with_transform([[x] for x in intvec(e)])
    if H[0] != (1,):
        raise ValueError("e must be a primitive integer vector; its content is %d" % abs(H[0][0]))
    return U


def line_split(num, s, e):
    """(a, c) for the rational vector v = num / s, num an integer vector, and
    a primitive integer vector e: with U unimodular and U e = e_1 (the
    Hermite transform of e as a column), a = (U num)[0] mod s and
    c = (U num)[1:] mod s.

    v - alpha e is integral exactly when c is zero, and then alpha = a / s is
    the unique such alpha in [0, 1); primitivity makes it unique modulo 1.
    Two vectors over one s differ by a rational multiple of e modulo Z^r, that
    is, lie in one class of Q^r / (Q e + Z^r), exactly when their c agree.
    """
    uv = [sum(a * b for a, b in zip(row, num)) for row in _line_transform(tuple(e))]
    return uv[0] % s, tuple(x % s for x in uv[1:])


# ---------------------------------------------------------------------------
# integer lattices and Hermite reduction


def hermite_row_form(rows):
    """Row-style Hermite normal form of an integer matrix.

    Returns the nonzero rows: upper echelon, positive pivots, entries above
    each pivot reduced into [0, pivot).  This is the canonical form used for
    deterministic lattice output.
    """
    H, _ = hermite_with_transform(rows)
    return [h for h in H if any(h)]


def hermite_with_transform(rows):
    """Row Hermite form with the unimodular transform: U A = H.

    Returns (H, U) with H including its zero rows, so kernel vectors of A
    can be read off the U-rows facing zero H-rows.
    """
    mat = [list(map(int, r)) for r in rows]
    n = len(mat)
    if not mat:
        return [], []
    ncol = len(mat[0])
    unim = [[int(i == j) for j in range(n)] for i in range(n)]
    row = 0
    for col in range(ncol):
        pivot = None
        for i in range(row, n):
            if mat[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        unim[row], unim[pivot] = unim[pivot], unim[row]
        for i in range(row + 1, n):
            while mat[i][col] != 0:
                q = mat[row][col] // mat[i][col]
                mat[row] = [a - q * b for a, b in zip(mat[row], mat[i])]
                unim[row] = [a - q * b for a, b in zip(unim[row], unim[i])]
                mat[row], mat[i] = mat[i], mat[row]
                unim[row], unim[i] = unim[i], unim[row]
        if mat[row][col] < 0:
            mat[row] = [-a for a in mat[row]]
            unim[row] = [-a for a in unim[row]]
        for i in range(row):
            q = mat[i][col] // mat[row][col]
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[row])]
                unim[i] = [a - q * b for a, b in zip(unim[i], unim[row])]
        row += 1
        if row == n:
            break
    return [tuple(r) for r in mat], [tuple(r) for r in unim]


def integer_kernel_basis(cond_rows, dim):
    """Basis of the saturated integer kernel {k in Z^dim : cond . k = 0}
    for integer condition rows.

    The kernel basis appears as the transform rows facing zero rows of the
    Hermite form of the transposed condition matrix.
    """
    if not cond_rows:
        return [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    # rows of the transpose are the coordinates; U A^T = H
    At = [[row[i] for row in cond_rows] for i in range(dim)]
    H, U = hermite_with_transform(At)
    return [U[i] for i in range(dim) if all(x == 0 for x in H[i])]


def quotient_transversal(gens):
    """Coset representatives of Z^r modulo the row span of ``gens``.

    ``gens`` must generate a finite-index sublattice of Z^r.  The
    representatives are the integer points of the Hermite pivot box, listed
    in lexicographic order.
    """
    H = hermite_row_form(gens)
    r = len(gens[0])
    if len(H) != r:
        raise ValueError("sublattice does not have finite index")
    return list(itertools.product(*(range(H[i][i]) for i in range(r))))


def lattice_from_generators(gens, dim):
    """The canonical basis of the full-rank group generated by rational
    vectors: the Hermite rows of the cleared generators over their common
    denominator, as a tuple of Fraction tuples."""
    scale, int_rows = _cleared_rows(gens)
    H = hermite_row_form(int_rows)
    if len(H) != dim:
        raise ValueError("generators do not span a rank-%d lattice" % dim)
    return tuple(tuple(Fraction(x, scale) for x in row) for row in H)


def extended_lattice(git, omega):
    """The basis rows of the lattice generated by Z^r together with all box
    representatives: gitfan._extended_rows as Fractions.

    The box classes are enumerated on the validated stability condition, so
    validation errors propagate.
    """
    from .gitfan import _extended_rows  # local import: gitfan builds on this module

    s, H = _extended_rows(git, omega)
    return tuple(tuple(Fraction(x, s) for x in row) for row in H)
