"""Exact linear algebra over character and cocharacter lattices.

Everything here is exact and no floating point enters any computation.  One
integer kernel does all elimination: Bareiss determinants, one cached
adjugate over a positive determinant per basis, and Hermite forms with their
unimodular transforms.  Rational matrices are cleared by their common
denominator before they reach it, so ranks, determinants, solves and kernels
never eliminate over Fractions.  Vectors that leave this layer are tuples
of ``fractions.Fraction`` (or plain ints for primitive lattice vectors).
Downstream numerical modules only ever evaluate the exact objects produced
here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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


def vadd(a, b):
    return tuple(_q(x) + _q(y) for x, y in zip(a, b))


def vsub(a, b):
    return tuple(_q(x) - _q(y) for x, y in zip(a, b))


def vscale(c, a):
    c = _q(c)
    return tuple(c * _q(x) for x in a)


def zero_vec(n):
    return (Fraction(0),) * n


def is_integral(v):
    return all(_q(x).denominator == 1 for x in v)


def frac_part(q):
    q = _q(q)
    return q - (q.numerator // q.denominator)


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
    """Solve M x = rhs exactly for a square matrix given by rows, with the
    cached inverse of M.  Raises SingularBasis when M is singular."""
    n = len(rows)
    assert all(len(r) == n for r in rows) and len(rhs) == n
    return _mat_vec(basis_inverse(tuple(map(tuple, rows))), rhs)


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


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def basis_inverse(rows):
    """Exact inverse of the square rational matrix whose rows are ``rows``:
    s adj / det from the integer inverse of s M, s the common denominator."""
    s, M = _cleared_rows(rows)
    adj, det = int_inverse(M)
    return tuple(tuple(Fraction(a * s, det) for a in row) for row in adj)


@lru_cache(maxsize=None)
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

    A positive multiple of w has numerators of the same signs, so this
    decides membership of a rational vector, cleared of its denominators, in
    the open and the closed cone over independent rows.
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


def _vec_mat(v, M):
    """The row vector v times the matrix M."""
    return tuple(sum((_q(x) * row[j] for x, row in zip(v, M)), Fraction(0))
                 for j in range(len(M[0])))


def _mat_vec(M, v):
    """The matrix M times the column vector v."""
    return tuple(sum((a * _q(x) for a, x in zip(row, v)), Fraction(0)) for row in M)


def right_kernel(rows, width):
    """A basis of the integer points of {x : row . x = 0 for every row}; it
    also spans the rational kernel."""
    return integer_kernel_basis(rows, width)


def content(v):
    g = 0
    for x in v:
        g = gcd(g, abs(int(x)))
    return g


def cleared(v):
    """A rational vector times the common denominator of its entries: an
    integer vector on the same ray, so in the same cones."""
    return _cleared_rows([v])[1][0]


def primitive_integer_vector(v):
    """Scale a nonzero rational vector to a primitive integer vector."""
    ints = cleared(v)
    g = content(ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in ints)


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


def anticone_dual(D, delta, k):
    """The vector f with D[delta[t]] . f = k_t for every t."""
    adj, det = anticone_inverse(D, delta)
    return tuple(Fraction(sum(a * x for a, x in zip(row, k)), det) for row in adj)


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


@lru_cache(maxsize=None)
def _line_transform(e):
    """A unimodular U with U e = e_1: the Hermite transform of e as a column.
    Raises ValueError unless e is a primitive integer vector."""
    H, U = hermite_with_transform([[x] for x in intvec(e)])
    if H[0] != (1,):
        raise ValueError("e must be a primitive integer vector; its content is %d" % abs(H[0][0]))
    return U


def _line_numerators(v, e):
    """(U v s, s) with U unimodular, U e = e_1, and s the common denominator
    of v, so that U v s is an integer vector."""
    s, (n,) = _cleared_rows([v])
    return [sum(a * b for a, b in zip(row, n)) for row in _line_transform(tuple(e))], s


def line_class(v, e):
    """The class of v in Q^r / (Q e + Z^r) for a primitive integer vector e:
    the fractional parts of (U v)[1:], U unimodular with U e = e_1.  Two
    vectors differ by a rational multiple of e modulo Z^r exactly when their
    classes agree."""
    uv, s = _line_numerators(v, e)
    return tuple(Fraction(x % s, s) for x in uv[1:])


def rational_line_membership(v, e):
    """The unique alpha in [0,1) with v - alpha*e integral, if it exists.

    ``e`` must be a primitive integer vector; primitivity makes alpha unique
    modulo 1.  With U e = e_1 as in line_class, v - alpha*e is integral
    exactly when (U v)[1:] is, and then alpha = frac((U v)[0]).
    """
    uv, s = _line_numerators(v, e)
    return Fraction(uv[0] % s, s) if all(x % s == 0 for x in uv[1:]) else None


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
    """Basis of the saturated integer kernel {k in Z^dim : cond . k = 0}.

    Conditions may be rational; they are cleared to integers first.  The
    kernel basis appears as the transform rows facing zero rows of the
    Hermite form of the transposed condition matrix.
    """
    rows = [cleared(cond) for cond in cond_rows]
    if not rows:
        return [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    # rows of the transpose are the coordinates; U A^T = H
    At = [[row[i] for row in rows] for i in range(dim)]
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


@dataclass(frozen=True)
class LatticeBasis:
    """Canonical basis of a full-rank finitely generated subgroup of Q^r."""

    rows: tuple

    @property
    def dim(self):
        return len(self.rows)

    def coords(self, v):
        """The coefficients c with v = sum_i c_i rows[i]."""
        return _vec_mat(v, basis_inverse(self.rows))

    def contains(self, v):
        return is_integral(self.coords(v))

    def dual(self):
        """The dual lattice {v : v.g in Z for every generator g}.

        The i-th dual basis vector d_i pairs to delta_ij with the basis rows,
        i.e. it is the i-th column of the inverse basis matrix.
        """
        return lattice_from_generators(zip(*basis_inverse(self.rows)), self.dim)


def lattice_from_generators(gens, dim):
    """Canonical LatticeBasis for the group generated by rational vectors."""
    scale, int_rows = _cleared_rows(gens)
    H = hermite_row_form(int_rows)
    if len(H) != dim:
        raise ValueError("generators do not span a rank-%d lattice" % dim)
    rows = tuple(tuple(Fraction(x, scale) for x in row) for row in H)
    return LatticeBasis(rows=rows)


def extended_lattice(git, omega):
    """Lattice generated by Z^r together with all box representatives.

    The box classes are enumerated on the validated stability condition, so
    validation errors propagate.
    """
    from . import gitfan  # local import: gitfan builds on this module

    sectors = gitfan.box_elements(git, omega)
    gens = [tuple(Fraction(int(i == j)) for j in range(git.r)) for i in range(git.r)]
    gens.extend(s.f for s in sectors)
    return lattice_from_generators(gens, git.r)
