"""Exact row reduction, kernels and linear solving.

Matrices are dense lists of rows over CycloScalar; raw rationals are
accepted on input and coerced once.  `rref` is the one Gauss-Jordan
elimination: kernels, span membership, coordinates and inverses are all
read off its output, on the rows themselves or on the rows augmented by an
identity block.  When every entry is rational (its numerators past the
first are zero) the rows are scaled to integers and eliminated by
`rref_integer`, fraction-free with the content divided out, and
normalised once at the end by their pivots (`rational_echelon`);
otherwise they go through the field loop.  `rref_integer` is the one
Gauss-Jordan over Q: callers that hold integer rows already, such as the
derivative route of `harmonics`, call it directly and keep its primitive
rows.  `det` keeps its own forward elimination because it needs the
product of the pivots, not an echelon form.

Reduced row echelon form is unique for a given row space, so every routine
returns the same matrix no matter how the input rows were ordered.  Kernel
bases use the standard free-column construction read off the echelon form,
which is therefore just as canonical.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import DomainError
from .scalars import CYC_ONE, CYC_ZERO, CycloScalar, _make


def _coerced(row):
    return [a if isinstance(a, CycloScalar) else CycloScalar.coerce(a)
            for a in row]


def rref(rows):
    """Canonical reduced row echelon form.

    Returns (echelon_rows, pivot_columns) with zero rows dropped, pivots
    monic, and every pivot column cleared above and below.  Rows whose
    entries are all rational are eliminated on integers (`_rref_rational`);
    any other entry sends them through the field loop (`_rref_field`).
    """
    mat = [_coerced(r) for r in rows]
    if all(a.order == 1 or not any(a.nums[1:]) for row in mat for a in row):
        return _rref_rational(mat)
    return _rref_field(mat)


def _rref_field(mat):
    """rref of CycloScalar rows by Gauss-Jordan over the field, in place."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        k = None
        for i in range(r, m):
            if mat[i][c]:
                k = i
                break
        if k is None:
            continue
        mat[r], mat[k] = mat[k], mat[r]
        piv = mat[r][c]
        if piv != 1:
            inv = piv.inv()
            mat[r] = [a * inv for a in mat[r]]
        row_r = mat[r]
        for i in range(m):
            if i == r:
                continue
            f = mat[i][c]
            if f:
                mat[i] = [a - f * b if b else a for a, b in zip(mat[i], row_r)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return mat[:r], pivots


def _primitive(row):
    """The integer row divided by the gcd of its entries; None if zero."""
    g = gcd(*row)
    if not g:
        return None
    return [a // g for a in row] if g != 1 else row


def integer_row(row):
    """A row of rational CycloScalars times the lcm of their denominators,
    as ints."""
    den = lcm(*(a.den for a in row))
    return [a.nums[0] * (den // a.den) for a in row]


def _rref_rational(mat):
    """rref of rational rows: each row is scaled to integers, eliminated by
    `rref_integer`, and divided by its pivot once at the end."""
    rows, pivots = rref_integer([integer_row(row) for row in mat])
    return rational_echelon(rows, pivots), pivots


def rref_integer(rows):
    """The integer core of Gauss-Jordan over Q, fraction-free: each step
    r_i <- (p/g) r_i - (f/g) r_k with g = gcd(p, f) keeps the rows integral,
    and each row's content is divided out.  Columns and pivots go in the
    same order as in `rref`, and zero rows are dropped as they appear.  The
    pivot row r_k is one with the least |p| in its column: the other rows
    are scaled by p/g, so a small pivot keeps their entries small.

    Returns (rows, pivot_columns): every row primitive with a positive
    pivot and every pivot column cleared in the other rows, so each row is
    the primitive integer multiple of the corresponding row of the reduced
    echelon form, which makes the output as canonical as that form."""
    rows = [row for row in map(_primitive, rows) if row is not None]
    n = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n):
        if r == len(rows):
            break
        live = [i for i in range(r, len(rows)) if rows[i][c]]
        if not live:
            continue
        k = min(live, key=lambda i: abs(rows[i][c]))
        rows[r], rows[k] = rows[k], rows[r]
        row_r = rows[r]
        p = row_r[c]
        kept = []
        for i, row_i in enumerate(rows):
            f = row_i[c]
            if f and i != r:
                g = gcd(p, f)
                pg, fg = p // g, f // g
                row_i = _primitive([pg * a - fg * b if b else pg * a
                                    for a, b in zip(row_i, row_r)])
                if row_i is None:
                    continue
            kept.append(row_i)
        rows = kept
        pivots.append(c)
        r += 1
    return [row if row[c] > 0 else [-a for a in row]
            for row, c in zip(rows, pivots)], pivots


def rational_echelon(rows, pivots):
    """The reduced echelon form of `rref_integer` output as CycloScalar
    rows: each row divided by its pivot."""
    return [[_make(1, (a,), row[c]) if a else CYC_ZERO for a in row]
            for row, c in zip(rows, pivots)]


def rref_with_transform(rows):
    """Like rref, but also returns T with T @ rows = echelon (kept rows only).

    Runs rref on [rows | I] and splits at the width of rows; the rows whose
    pivot falls in the identity block span the dependencies and are dropped.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [list(r) + ident for r, ident in zip(rows, identity_matrix(m))]
    ech, pivots = rref(aug)
    r = sum(1 for c in pivots if c < n)
    return [row[:n] for row in ech[:r]], pivots[:r], [row[n:] for row in ech[:r]]


def rank(rows) -> int:
    return len(rref(rows)[0])


def kernel_from_rref(ech, pivots, ncols):
    """Right-kernel basis from an echelon form: one vector per free column,
    with a one at the free column and minus the echelon entries at pivots.
    Canonical because the echelon form is."""
    pivset = set(pivots)
    basis = []
    for j in range(ncols):
        if j in pivset:
            continue
        v = [CYC_ZERO] * ncols
        v[j] = CYC_ONE
        for i, p in enumerate(pivots):
            e = ech[i][j]
            if e:
                v[p] = -e
        basis.append(v)
    return basis


def kernel_basis(rows, ncols):
    ech, piv = rref(rows)
    return kernel_from_rref(ech, piv, ncols)


def echelon_coordinates(ech, pivots, vec):
    """Coordinates of vec in the row span of a reduced echelon form: its
    entries at the pivot columns, or None when the residual vec minus that
    combination of rows does not vanish (vec is outside the span).  The
    residual is zero at the pivot columns by construction, so only the
    other columns are checked."""
    coeffs = [vec[p] for p in pivots]
    live = [(c, row) for c, row in zip(coeffs, ech) if c]
    pivset = set(pivots)
    for j, a in enumerate(vec):
        if j in pivset:
            continue
        for c, row in live:
            b = row[j]
            if b:
                a = a - c * b
        if a:
            return None
    return coeffs


class SpanSolver:
    """Membership and coordinates for the row span of a fixed matrix.

    express(v) returns coefficients c with sum(c_i * rows_i) == v, or None
    when v is outside the span.  Coordinates refer to the original rows;
    when those are dependent one valid solution is returned.
    """

    __slots__ = ("rows", "ech", "pivots", "transform")

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]
        self.ech, self.pivots, self.transform = rref_with_transform(self.rows)

    def contains(self, vec) -> bool:
        return echelon_coordinates(self.ech, self.pivots, vec) is not None

    def express(self, vec):
        coeffs = echelon_coordinates(self.ech, self.pivots, vec)
        if coeffs is None:
            return None
        return vec_mat(coeffs, self.transform, [CYC_ZERO] * len(self.rows))


# ---------------------------------------------------------------------------
# matrix helpers (square, dense)


def identity_matrix(n):
    return [[CYC_ONE if i == j else CYC_ZERO for j in range(n)]
            for i in range(n)]


def mat_mul(a, b):
    """The product a b.  The nonzero entries of each row of b are listed
    once, so each entry of a and of b is tested for zero once."""
    m = len(b[0]) if b else 0
    sparse = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [None] * m
        for x, terms in zip(row, sparse):
            if x:
                for j, y in terms:
                    acc[j] = x * y if acc[j] is None else acc[j] + x * y
        if any(v is None for v in acc):
            zero = row[0] - row[0]
            acc = [zero if v is None else v for v in acc]
        out.append(acc)
    return out


def mat_vec(a, v):
    out = []
    for row in a:
        acc = None
        for x, y in zip(row, v):
            if x and y:
                acc = x * y if acc is None else acc + x * y
        if acc is None:
            acc = row[0] - row[0]
        out.append(acc)
    return out


def vec_mat(v, rows, acc):
    """acc plus sum_i v[i] * rows[i], as a new list."""
    out = list(acc)
    for c, row in zip(v, rows):
        if c:
            for j, b in enumerate(row):
                if b:
                    out[j] = out[j] + c * b
    return out


def kron_vec(a, b):
    """The Kronecker product of two vectors: entry i * len(b) + j is
    a[i] * b[j]."""
    return [x * y for x in a for y in b]


def kron_apply(a, b, m):
    """(a (x) b) m for square a and b, without forming the Kronecker
    product.  Row i * len(b) + j of m is indexed as kron_vec indexes its
    entries, so b acts on each run of len(b) rows and then a acts across
    the runs: O(len(a) * len(b) * (len(a) + len(b))) products per column
    instead of O((len(a) * len(b))**2)."""
    nb = len(b)
    runs = [mat_mul(b, m[i * nb:(i + 1) * nb]) for i in range(len(a))]
    across = [mat_mul(a, [run[j] for run in runs]) for j in range(nb)]
    return [across[j][i] for i in range(len(a)) for j in range(nb)]


def mat_inv(a):
    n = len(a)
    aug = [list(row) + ident for row, ident in zip(a, identity_matrix(n))]
    ech, piv = rref(aug)
    if piv != list(range(n)):
        raise DomainError("matrix is singular")
    return [row[n:] for row in ech]


def det(a):
    n = len(a)
    mat = [_coerced(r) for r in a]
    result = CYC_ONE
    sign = 1
    for c in range(n):
        k = None
        for i in range(c, n):
            if mat[i][c]:
                k = i
                break
        if k is None:
            return CYC_ZERO
        if k != c:
            mat[c], mat[k] = mat[k], mat[c]
            sign = -sign
        piv = mat[c][c]
        result = result * piv
        inv = piv.inv()
        row_c = [x * inv for x in mat[c]]
        mat[c] = row_c
        for i in range(c + 1, n):
            f = mat[i][c]
            if f:
                mat[i] = [a2 - f * b2 if b2 else a2 for a2, b2 in zip(mat[i], row_c)]
    if sign < 0:
        result = -result
    return result
