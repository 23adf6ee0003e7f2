"""Exact character tables and graded character bookkeeping.

Tables are computed by the classical class-algebra method: the
structure-constant matrices of the class sums commute and are
simultaneously diagonalizable, and the normalized entries of their
common eigenvectors are the character values scaled by class size over
degree.  All eigenproblems run modulo a prime p with p = 1 (mod
exponent(G)) and p squared > 4|G|, after which values lift uniquely to
the cyclotomic field of the exponent by Fourier inversion along each
cyclic subgroup.  Every table is checked against both orthogonality
relations before being returned, so downstream consumers see validated
data or an exception, never a silently wrong table.

The graded layer (graded characters, fake degrees, induced-trivial
multiplicities) is inner-product arithmetic over the table; the
fake-degree identity has three independent computations that
verify_fake_degree_formula compares.
"""

from __future__ import annotations

import weakref

from .errors import CapError, DomainError, UsageError, VerificationError
from .groups import ReflectionGroup, conjugacy_classes
from .harmonics import (
    GradedBasis,
    action_trace,
    fixed_point_basis,
    harmonic_basis,
    invariant_degrees,
    molien,
)
from .scalars import QQ, CycloScalar, RatPoly, prime_factors

TABLE_CAP = 2000

_CACHE = weakref.WeakKeyDictionary()


def _ctx(group):
    ctx = _CACHE.get(group)
    if ctx is None:
        ctx = {}
        _CACHE[group] = ctx
    return ctx


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


def _common_eigenvectors(mats, p):
    """Split F_p^k into common one-dimensional eigenspaces of a family of
    commuting diagonalizable matrices."""
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
            found = 0
            for lam in range(p):
                shifted = [[(restr[r][c] - (lam if r == c else 0)) % p
                            for c in range(m)] for r in range(m)]
                ker = _kernel_mod(shifted, p)
                if ker:
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
    order = group.order
    sizes = classes.sizes
    k = len(classes)
    degrees = [rows[r][0] for r in range(len(rows))]
    if sum(int(d.as_rational()) ** 2 for d in degrees) != order:
        raise VerificationError("character degrees do not satisfy the "
                                "sum-of-squares identity")
    one = CycloScalar.rational(1)
    if any(v != one for v in rows[0]):
        raise VerificationError("first character row is not trivial")
    for r in range(len(rows)):
        for s in range(r, len(rows)):
            acc = CycloScalar.rational(0)
            for j in range(k):
                term = rows[r][j] * rows[s][j].conj()
                acc = acc + term * CycloScalar.rational(sizes[j])
            want = order if r == s else 0
            if acc != CycloScalar.rational(want):
                raise VerificationError("row orthogonality fails at rows "
                                        "%d, %d" % (r, s))
    for i in range(k):
        for j in range(i, k):
            acc = CycloScalar.rational(0)
            for r in range(len(rows)):
                acc = acc + rows[r][i] * rows[r][j].conj()
            want = QQ(order, sizes[i]) if i == j else QQ(0)
            if acc != CycloScalar.rational(want):
                raise VerificationError("column orthogonality fails at "
                                        "classes %d, %d" % (i, j))


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

    vectors = _common_eigenvectors([[row[:] for row in mats[i]]
                                    for i in range(1, k)], p)
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
            value = CycloScalar.rational(0)
            total = 0
            for u in range(n):
                mu = sum(powers[t] * pow(z_inv, u * t, p)
                         for t in range(n)) * n_inv % p
                if mu > degree:
                    raise DomainError("eigenvalue multiplicity %d exceeds "
                                      "the degree bound" % mu)
                total += mu
                if mu:
                    value = value + CycloScalar.rational(mu) * \
                        CycloScalar.root_of_unity(exponent,
                                                  u * (exponent // n))
            if total != degree:
                raise DomainError("eigenvalue multiplicities do not sum "
                                  "to the degree")
            row[j] = value
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


def graded_character(group: ReflectionGroup, space: GradedBasis, d: int):
    """Trace of each class representative on the degree-d component,
    as a tuple aligned with conjugacy_classes(group)."""
    return tuple(action_trace(space, d, rep)
                 for rep, _ in conjugacy_classes(group).classes)


def _integer_inner(values, sizes, row, order):
    """(1/|G|) sum_j size_j * values_j * conj(row_j), demanding a
    non-negative integer result."""
    acc = CycloScalar.rational(0)
    for v, s, c in zip(values, sizes, row):
        acc = acc + v * c.conj() * CycloScalar.rational(s)
    if not acc.is_rational():
        raise DomainError("inner product is not rational")
    q = acc.as_rational() / order
    if q.denominator != 1 or q < 0:
        raise DomainError("inner product %s is not a non-negative integer"
                          % (q,))
    return int(q)


def fake_degrees(group: ReflectionGroup):
    """Polynomial recording, per irreducible, the degrees in which it
    occurs inside the harmonic space, with multiplicity."""
    ctx = _ctx(group)
    if "fakes" in ctx:
        return ctx["fakes"]
    table = character_table(group)
    classes = table.classes
    sizes = classes.sizes
    order = group.order
    basis = harmonic_basis(group)
    traces = {d: graded_character(group, basis, d)
              for d in sorted(basis.degrees)}
    fakes = []
    for row in table.irreducibles:
        coeffs = [0] * (basis.max_degree + 1)
        for d, values in traces.items():
            coeffs[d] = _integer_inner(values, sizes, row, order)
        fakes.append(RatPoly(coeffs))
    if fakes[0] != RatPoly([1]):
        raise VerificationError("trivial character has a nontrivial fake "
                                "degree")
    total = RatPoly()
    for deg, poly in zip(table.degrees, fakes):
        total = total + poly * deg
        if poly(1) != deg:
            raise VerificationError("fake degree at t=1 misses the "
                                    "character degree")
    if total != basis.poincare():
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
    out = []
    for row in table.irreducibles:
        acc = CycloScalar.rational(0)
        for c, v in zip(counts, row):
            if c:
                acc = acc + v * CycloScalar.rational(c)
        if not acc.is_rational():
            raise DomainError("induced multiplicity is not rational")
        q = acc.as_rational() / subgroup.order
        if q.denominator != 1 or q < 0:
            raise DomainError("induced multiplicity %s is not a "
                              "non-negative integer" % (q,))
        out.append(int(q))
    index = group.order // subgroup.order
    if sum(m * d for m, d in zip(out, table.degrees)) != index:
        raise VerificationError("induced multiplicities do not add up to "
                                "the subgroup index")
    return tuple(out)


def verify_fake_degree_formula(group: ReflectionGroup,
                               subgroup: ReflectionGroup) -> dict:
    """Compare three computations of the fixed-space Poincare polynomial:
    the weighted fake-degree sum, the direct fixed-point basis, and the
    Molien series quotient.  Disagreement is reported, not raised."""
    mults = induced_trivial_multiplicities(group, subgroup)
    fakes = fake_degrees(group)
    char_sum = RatPoly()
    for m, poly in zip(mults, fakes):
        if m:
            char_sum = char_sum + poly * m

    fixed = fixed_point_basis(harmonic_basis(group), subgroup)
    fixed_poin = fixed.poincare()

    shape = RatPoly([1])
    for d in invariant_degrees(group):
        shape = shape * RatPoly([1] + [0] * (d - 1) + [-1])
    trunc = shape.degree + 1
    series = molien(subgroup, trunc)
    quotient = RatPoly([sum(shape.coeff(i) * series.coeff(n - i)
                            for i in range(n + 1))
                        for n in range(trunc)])

    agree = char_sum == fixed_poin and fixed_poin == quotient
    return {
        "character_sum": char_sum,
        "fixed_poincare": fixed_poin,
        "molien_quotient": quotient,
        "agree": agree,
    }
