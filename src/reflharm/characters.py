"""Exact character tables and graded character bookkeeping.

Tables are computed by the classical class-algebra method (Dixon, Numer.
Math. 10, 1967): the structure-constant matrices of the class sums
commute and are simultaneously diagonalizable, and the normalized
entries of their common eigenvectors are the character values scaled by
class size over degree.  All eigenproblems run modulo a prime p with
p = 1 (mod exponent(G)) and p squared > 4|G|.  On each eigenspace found
so far, the characteristic polynomial of the next matrix is computed
once over F_p (Hessenberg reduction), its roots are found by evaluating
it at every element of F_p, and a kernel is taken only at a root.  The
values then lift uniquely by Fourier inversion along each cyclic
subgroup: the value at g is sum_u m_u zeta_n^u, n the order of g and m_u
the multiplicity of the eigenvalue zeta_n^u, stored reduced to its
minimal conductor.  Every table is checked against both orthogonality
relations before being returned, so downstream consumers see validated
data or an exception, never a silently wrong table.

The graded layer (graded characters, fake degrees, induced-trivial
multiplicities) is inner-product arithmetic over the table; the
orthogonality check and all inner products run on packed integer dot
products (scalars.dot_products), each demanded exact.  Graded
characters come from class series: S = S^G (x) H as graded G-modules, so
sum_d tr(g | H_d) t^d = prod_i (1 - t^d_i) / det(Id - t g^-1) (Springer,
Invent. Math. 25, 1974), and no harmonic basis is built.  The fake-degree
identity has three independent computations that
verify_fake_degree_formula compares.
"""

from __future__ import annotations

from .errors import CapError, DomainError, UsageError, VerificationError
from .groups import ReflectionGroup, conjugacy_classes
from .harmonics import (
    _ctx,
    class_series,
    fixed_point_basis,
    harmonic_basis,
    harmonic_poincare,
    invariant_degrees,
    molien,
    shape_product,
)
from .scalars import (CycloScalar, RatPoly, _combine, _make, _power_table,
                      dot_products, euler_phi, prime_factors)

TABLE_CAP = 2000


def _choose_prime(order: int, exponent: int) -> int:
    # p = 1 (mod e) so F_p holds the needed roots of unity; p^2 > 4|G|
    # so degrees and multiplicities are recoverable from their residues.
    p = exponent + 1
    while True:
        if p * p > 4 * order and order % p and prime_factors(p) == (p,):
            return p
        p += exponent


def _primitive_root(p: int) -> int:
    fac = prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            return g
    raise DomainError("no primitive root modulo %d" % p)


def _matvec_mod(mat, vec, p):
    return [sum(m * v for m, v in zip(row, vec)) % p for row in mat]


def _rref_mod(rows, p, ncols):
    """Reduced row echelon form over F_p, pivoting in the first ncols
    columns only.  Returns (rows, pivots): every input row, reduced mod p,
    with the pivot rows first."""
    mat = [[v % p for v in row] for row in rows]
    pivots = []
    for col in range(ncols):
        sel = next((r for r in range(len(pivots), len(mat)) if mat[r][col]),
                   None)
        if sel is None:
            continue
        rank = len(pivots)
        mat[rank], mat[sel] = mat[sel], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [v * inv % p for v in mat[rank]]
        for r in range(len(mat)):
            f = mat[r][col]
            if r != rank and f:
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[rank])]
        pivots.append(col)
    return mat, pivots


def _kernel_mod(mat, p):
    """Basis of the kernel of a square matrix over F_p."""
    m = len(mat)
    ech, pivots = _rref_mod(mat, p, m)
    basis = []
    for free in range(m):
        if free in pivots:
            continue
        v = [0] * m
        v[free] = 1
        for r, col in enumerate(pivots):
            v[col] = -ech[r][free] % p
        basis.append(v)
    return basis


def _coordinates_mod(basis, targets, p):
    """Express each target vector in the given basis (all columns over
    F_p); raises if a target leaves the span."""
    m = len(basis)
    aug = [[b[row] for b in basis] + [t[row] for t in targets]
           for row in range(len(basis[0]))]
    ech, pivots = _rref_mod(aug, p, m)
    if len(pivots) != m:
        raise DomainError("degenerate subspace basis")
    if any(v for row in ech[m:] for v in row[m:]):
        raise DomainError("vector leaves an invariant subspace")
    return [row[m:] for row in ech[:m]]


def _combine_mod(basis, coeffs, p):
    k = len(basis[0])
    out = [0] * k
    for c, vec in zip(coeffs, basis):
        if c:
            for r in range(k):
                out[r] = (out[r] + c * vec[r]) % p
    return out


def _charpoly_mod(mat, p):
    """Coefficients of det(t I - mat) over F_p, constant term first: a
    similarity transform to upper Hessenberg form H, then the recurrence
    for the characteristic polynomials of the leading blocks of H."""
    m = len(mat)
    h = [[v % p for v in row] for row in mat]
    for c in range(m - 2):
        sel = next((r for r in range(c + 1, m) if h[r][c]), None)
        if sel is None:
            continue
        if sel != c + 1:
            h[c + 1], h[sel] = h[sel], h[c + 1]
            for row in h:
                row[c + 1], row[sel] = row[sel], row[c + 1]
        inv = pow(h[c + 1][c], p - 2, p)
        for r in range(c + 2, m):
            u = h[r][c] * inv % p
            if u:
                # row r -= u * row c+1, then column c+1 += u * column r
                h[r] = [(a - u * b) % p for a, b in zip(h[r], h[c + 1])]
                for row in h:
                    row[c + 1] = (row[c + 1] + u * row[r]) % p
    polys = [[1]]
    for k in range(1, m + 1):
        prev = polys[-1]
        poly = [0] + prev
        for i, v in enumerate(prev):
            poly[i] = (poly[i] - h[k - 1][k - 1] * v) % p
        sub = 1
        for i in range(1, k):
            sub = sub * h[k - i][k - i - 1] % p
            f = h[k - i - 1][k - 1] * sub % p
            if f:
                for j, v in enumerate(polys[k - i - 1]):
                    poly[j] = (poly[j] - f * v) % p
        polys.append(poly)
    return polys[m]


def _common_eigenvectors(mats, p):
    """Split F_p^k into common one-dimensional eigenspaces of a family of
    commuting diagonalizable matrices.  The eigenvalues on each space are
    the roots of its characteristic polynomial, found by evaluating it at
    every element of F_p."""
    if not mats:  # one class: F_p^1 is already an eigenspace
        return [[1]]
    k = len(mats[0])
    spaces = [[[1 if r == c else 0 for r in range(k)] for c in range(k)]]
    for mat in mats:
        refined = []
        for basis in spaces:
            m = len(basis)
            if m == 1:
                refined.append(basis)
                continue
            images = [_matvec_mod(mat, b, p) for b in basis]
            restr = _coordinates_mod(basis, images, p)
            poly = _charpoly_mod(restr, p)
            found = 0
            for lam in range(p):
                acc = 0
                for c in reversed(poly):
                    acc = (acc * lam + c) % p
                if acc:
                    continue
                shifted = [[(restr[r][c] - (lam if r == c else 0)) % p
                            for c in range(m)] for r in range(m)]
                ker = _kernel_mod(shifted, p)
                refined.append([_combine_mod(basis, v, p) for v in ker])
                found += len(ker)
                if found == m:
                    break
            if found != m:
                raise DomainError("class-algebra matrix is not "
                                  "diagonalizable modulo %d" % p)
        spaces = refined
        if all(len(b) == 1 for b in spaces):
            break
    if any(len(b) != 1 for b in spaces):
        raise DomainError("class-algebra eigenvectors were not separated")
    return [b[0] for b in spaces]


class CharacterTable:
    """Rows are irreducible characters, columns follow the class order of
    conjugacy_classes; the first row is the trivial character."""

    def __init__(self, group, classes, irreducibles, degrees):
        self.group = group
        self.classes = classes
        self.irreducibles = tuple(tuple(row) for row in irreducibles)
        self.degrees = tuple(degrees)

    def __len__(self):
        return len(self.irreducibles)

    def value(self, row: int, cls: int) -> CycloScalar:
        return self.irreducibles[row][cls]

    def to_json(self):
        return {
            "classes": [{"representative":
                         [[v.to_json() for v in row] for row in rep],
                         "size": size}
                        for rep, size in self.classes.classes],
            "degrees": list(self.degrees),
            "irreducibles": [[v.to_json() for v in row]
                             for row in self.irreducibles],
        }


def _validate_table(group, classes, rows):
    """Check the degrees' sum of squares, the trivial first row and the row
    orthogonality relations X D X* = |G| I, D the diagonal of class sizes.
    The table is square (_common_eigenvectors returns one vector per class
    or raises), so the row relations make D X* / |G| the inverse of X, and
    the column relations X* X = |G| D^-1 follow without a check."""
    order = group.order
    degrees = [rows[r][0] for r in range(len(rows))]
    if sum(int(d.as_rational()) ** 2 for d in degrees) != order:
        raise VerificationError("character degrees do not satisfy the "
                                "sum-of-squares identity")
    one = CycloScalar.rational(1)
    if any(v != one for v in rows[0]):
        raise VerificationError("first character row is not trivial")
    weighted = [[v.conj() * size for v, size in zip(row, classes.sizes)]
                for row in rows]
    gram = dot_products(rows, weighted)
    for r in range(len(rows)):
        for s in range(r, len(rows)):
            want = order if r == s else 0
            if gram[r][s] != want:
                raise VerificationError("row orthogonality fails at rows "
                                        "%d, %d" % (r, s))


def character_table(group: ReflectionGroup,
                    cap: int = TABLE_CAP) -> CharacterTable:
    ctx = _ctx(group)
    if "table" in ctx:
        return ctx["table"]
    if group.order > cap:
        raise CapError("character table too large: order %d exceeds cap %d"
                       % (group.order, cap))
    classes = conjugacy_classes(group)
    k = len(classes)
    order = group.order
    exponent = group.exponent()
    p = _choose_prime(order, exponent)

    # structure constants: mats[i][j][m] counts pairs (x in C_i, y in C_j)
    # with x*y equal to the representative of C_m
    inv_of = [group.inverse_index(x) for x in range(order)]
    mats = [[[0] * k for _ in range(k)] for _ in range(k)]
    for m, rep in enumerate(classes.rep_indices):
        for x in range(order):
            i = classes.class_of[x]
            j = classes.class_of[group.mul_index(inv_of[x], rep)]
            mats[i][j][m] += 1

    vectors = _common_eigenvectors(mats[1:], p)
    inv_class = [classes.class_of[inv_of[rep]]
                 for rep in classes.rep_indices]
    size_inv = [pow(s, p - 2, p) for s in classes.sizes]

    root = _primitive_root(p)
    zeta_img = pow(root, (p - 1) // exponent, p)

    rows = []
    for vec in vectors:
        if vec[0] % p == 0:
            raise DomainError("eigenvector vanishes on the identity class")
        norm = pow(vec[0], p - 2, p)
        omega = [v * norm % p for v in vec]
        s = sum(omega[j] * omega[inv_class[j]] * size_inv[j]
                for j in range(k)) % p
        if s == 0:
            raise DomainError("degree recovery hit a zero norm")
        dd = order * pow(s, p - 2, p) % p
        degree = None
        d = 1
        while d * d <= order:
            if d * d % p == dd:
                degree = d
                break
            d += 1
        if degree is None:
            raise DomainError("no character degree matches its residue")
        residues = [degree * omega[j] * size_inv[j] % p for j in range(k)]
        row = [None] * k
        for j, rep in enumerate(classes.rep_indices):
            n = group.element_order(rep)
            z = pow(zeta_img, exponent // n, p)
            z_inv = pow(z, p - 2, p)
            powers = []
            cur = 0
            for _ in range(n):
                powers.append(residues[classes.class_of[cur]])
                cur = group.mul_index(cur, rep)
            n_inv = pow(n, p - 2, p)
            mults = []
            for u in range(n):
                mu = sum(powers[t] * pow(z_inv, u * t, p)
                         for t in range(n)) * n_inv % p
                if mu > degree:
                    raise DomainError("eigenvalue multiplicity %d exceeds "
                                      "the degree bound" % mu)
                mults.append(mu)
            if sum(mults) != degree:
                raise DomainError("eigenvalue multiplicities do not sum "
                                  "to the degree")
            row[j] = _make(n, _combine(mults, _power_table(n), euler_phi(n)),
                           1).reduce()
        rows.append((degree, row))

    one = CycloScalar.rational(1)
    trivial = [row for _, row in rows if all(v == one for v in row)]
    if len(trivial) != 1:
        raise DomainError("expected exactly one trivial character")
    rest = [(deg, row) for deg, row in rows
            if not all(v == one for v in row)]
    rest.sort(key=lambda item: (item[0],
                                tuple(v.sort_key() for v in item[1])))
    ordered = [trivial[0]] + [row for _, row in rest]
    degrees = [1] + [deg for deg, _ in rest]
    _validate_table(group, classes, ordered)
    table = CharacterTable(group, classes, ordered, degrees)
    ctx["table"] = table
    return table


def graded_character(group: ReflectionGroup):
    """tr(g | H_d) over conjugacy_classes(group), one tuple per degree
    d = 0..N = sum_i (d_i - 1): the class series of g^-1 times
    prod_i (1 - t^d_i), which must vanish in degrees N+1..N+l."""
    top = sum(d - 1 for d in invariant_degrees(group))
    trunc = top + group.dim
    columns = [shape_product(group, class_series(group.inverse(i), trunc))
               for i in conjugacy_classes(group).rep_indices]
    if any(c for col in columns for c in col[top + 1:]):
        raise VerificationError("graded character series does not stop at "
                                "degree %d" % top)
    return tuple(tuple(col[d] for col in columns) for d in range(top + 1))


def _integer_quotient(value, order):
    """value / order, demanding a non-negative integer."""
    if not value.is_rational():
        raise DomainError("inner product is not rational")
    num = value.nums[0]
    if value.den != 1 or num % order or num < 0:
        raise DomainError("inner product %s is not a non-negative integer"
                          % (value.as_rational() / order,))
    return num // order


def fake_degrees(group: ReflectionGroup):
    """Polynomial recording, per irreducible, the degrees in which it
    occurs inside the harmonic space, with multiplicity: inner products
    with the graded characters of class series (Springer, 1974)."""
    ctx = _ctx(group)
    if "fakes" in ctx:
        return ctx["fakes"]
    table = character_table(group)
    sizes = table.classes.sizes
    order = group.order
    traces = graded_character(group)
    weighted = [[c.conj() * size for c, size in zip(row, sizes)]
                for row in table.irreducibles]
    inner = dot_products(weighted, traces)
    fakes = [RatPoly([_integer_quotient(v, order) for v in line])
             for line in inner]
    if fakes[0] != RatPoly([1]):
        raise VerificationError("trivial character has a nontrivial fake "
                                "degree")
    total = RatPoly()
    for deg, poly in zip(table.degrees, fakes):
        total = total + poly * deg
        if poly(1) != deg:
            raise VerificationError("fake degree at t=1 misses the "
                                    "character degree")
    if total != harmonic_poincare(group):
        raise VerificationError("weighted fake degrees do not assemble "
                                "the harmonic Poincare polynomial")
    fakes = tuple(fakes)
    ctx["fakes"] = fakes
    return fakes


def induced_trivial_multiplicities(group: ReflectionGroup,
                                   subgroup: ReflectionGroup):
    """Multiplicity of each irreducible in the induction of the trivial
    character from the subgroup, row-aligned with character_table."""
    if not subgroup.is_subgroup_of(group):
        raise UsageError("multiplicities need a subgroup of the ambient "
                         "group")
    table = character_table(group)
    classes = table.classes
    counts = [0] * len(classes)
    for x in subgroup.elements:
        counts[classes.class_of[group.index_of(x)]] += 1
    inner = dot_products(table.irreducibles,
                         [[CycloScalar.rational(c) for c in counts]])
    out = tuple(_integer_quotient(line[0], subgroup.order) for line in inner)
    index = group.order // subgroup.order
    if sum(m * d for m, d in zip(out, table.degrees)) != index:
        raise VerificationError("induced multiplicities do not add up to "
                                "the subgroup index")
    return out


def verify_fake_degree_formula(group: ReflectionGroup,
                               subgroup: ReflectionGroup) -> dict:
    """Compare three computations of the fixed-space Poincare polynomial:
    the weighted fake-degree sum, the direct fixed-point basis, and the
    Molien series quotient.  Disagreement is reported, not raised."""
    mults = induced_trivial_multiplicities(group, subgroup)
    fakes = fake_degrees(group)
    char_sum = sum((poly * m for m, poly in zip(mults, fakes) if m),
                   RatPoly())
    fixed_poin = fixed_point_basis(harmonic_basis(group), subgroup).poincare()

    series = molien(subgroup, sum(invariant_degrees(group)))
    quotient = RatPoly(shape_product(group, series))

    agree = char_sum == fixed_poin and fixed_poin == quotient
    return {
        "character_sum": char_sum,
        "fixed_poincare": fixed_poin,
        "molien_quotient": quotient,
        "agree": agree,
    }
