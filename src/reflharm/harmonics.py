"""Invariants and harmonics of a reflection group.

The module computes, exactly:

  * the Molien series, summed once per conjugacy class: each class's
    1/det(Id - t g) comes from the power traces tr(g^k) through Newton's
    identities;
  * the invariant degrees d_1 <= ... <= d_l, peeled off the Molien series,
    and the product of a series by prod_i (1 - t^d_i);
  * the harmonic space H as canonical reduced-echelon graded bases, by the
    production route "derivative" (derivatives of the skew product, top
    down: H_N is spanned by the skew product and H_d by the first
    derivatives of H_(d+1)) and the cross-check "perp" (joint kernel of
    the invariant operators);
  * on the echelon pieces of a GradedBasis, each derived once, the matrix
    of a linear map (each monomial of the piece substituted once, the
    basis rows combined from those images and read at the pivot columns)
    and the fixed points of a subgroup (the common left kernel of g - Id
    over its generators);
  * the projection S_d = H_d + F_d through the Gram matrix of the pairing
    of H_d with the opposite-side H'_d, whose annihilator is F_d;
  * for the cross-checks only: echelon bases of the invariant spaces
    S^G_d (the generators' fixed points on the degree-d monomials), free
    generators, the graded invariant ideal F, and the Reynolds (averaging)
    projection that tests use as a reference.

Harmonic degrees are capped at N = deg(skew product); H vanishes above N.

The per-degree solvers build their rows from the coefficients of their
input (the invariant operators, or the basis one degree up) as they are;
`rref` eliminates rows that hold only rationals on integers.  The perp
route takes H_d as one joint kernel per block of degree-d monomials: the
images of the block under every invariant operator of degree <= d,
stacked into one matrix.  For groups of monomial matrices the blocks are
indexed by the characters of the diagonal subgroup (an invariant operator
keeps the character, so the blocks do not interact); otherwise all
monomials form one block.  The derivative route needs no split, since it
eliminates only ell * dim H_(d+1) rows per degree.
"""

from __future__ import annotations

import math
import weakref

from .errors import DomainError, UsageError, VerificationError
from .groups import ReflectionGroup, conjugacy_classes
from .linalg import (SpanSolver, echelon_coordinates, kernel_basis, mat_inv,
                     mat_mul, mat_vec, rref)
from .mpoly import (
    CONTRAVARIANT,
    COVARIANT,
    MPoly,
    _monomial_image,
    _monomial_shape,
    coerce_matrix,
    diff_apply,
    monomials_of_degree,
    pairing,
)
from .scalars import CYC_ONE, CYC_ZERO, QQ, CycloScalar, RatPoly

_ZERO, _ONE = CYC_ZERO, CYC_ONE


def _opposite(space: str) -> str:
    return COVARIANT if space == CONTRAVARIANT else CONTRAVARIANT


class GradedBasis:
    """Per-degree echelon bases of a graded subspace of polynomials.
    piece(d) derives a piece's coefficient rows and pivot columns once, on
    first use, and checks its reduced echelon form then."""

    def __init__(self, space: str, nvars: int, degrees: dict):
        self.space = space
        self.nvars = nvars
        self.degrees = {d: list(polys) for d, polys in degrees.items() if polys}
        self.max_degree = max(self.degrees, default=0)
        self._pieces = {}

    def piece(self, d: int):
        """(monomials, coefficient rows, pivot columns) of the degree-d
        piece, empty or not; UsageError unless it is homogeneous and in
        reduced echelon form, which rref confirms without a division."""
        got = self._pieces.get(d)
        if got is None:
            basis = self.basis(d)
            monos = monomials_of_degree(self.nvars, d)
            vecs = [p.coeff_vector(monos) for p in basis]
            ech, pivots = rref(vecs)
            if ech != vecs or any(p.homogeneous_degree() != d for p in basis):
                raise UsageError(
                    "degree-%d piece is not in reduced echelon form" % d)
            got = self._pieces[d] = (monos, vecs, pivots)
        return got

    def dim(self, d: int) -> int:
        return len(self.degrees.get(d, ()))

    def dimension(self) -> int:
        return sum(len(v) for v in self.degrees.values())

    def basis(self, d: int):
        return self.degrees.get(d, [])

    def poincare(self) -> RatPoly:
        coeffs = [0] * (self.max_degree + 1)
        for d, polys in self.degrees.items():
            coeffs[d] = len(polys)
        return RatPoly(coeffs)

    def to_json(self):
        return {"degrees": {str(d): [p.to_json() for p in self.degrees[d]]
                            for d in sorted(self.degrees)}}

    @classmethod
    def from_json(cls, data):
        degs = {}
        space = None
        nvars = None
        for key, items in data["degrees"].items():
            polys = [MPoly.from_json(item) for item in items]
            if polys:
                space = polys[0].space
                nvars = polys[0].nvars
            degs[int(key)] = polys
        if space is None:
            raise UsageError("empty graded basis JSON")
        return cls(space, nvars, degs)

    def __eq__(self, other):
        return (isinstance(other, GradedBasis) and self.space == other.space
                and self.degrees == other.degrees)

    def __repr__(self):
        dims = [self.dim(d) for d in range(self.max_degree + 1)]
        return "GradedBasis(%s, dims=%s)" % (self.space, dims)


# ---------------------------------------------------------------------------
# per-group cache

_CACHE = weakref.WeakKeyDictionary()


def _ctx(group: ReflectionGroup) -> dict:
    ctx = _CACHE.get(group)
    if ctx is None:
        ctx = {}
        _CACHE[group] = ctx
    return ctx


# ---------------------------------------------------------------------------
# Reynolds and Molien


def reynolds(group: ReflectionGroup, poly: MPoly) -> MPoly:
    """Group average (1/|G|) sum_g g.poly; projects onto the invariants."""
    if poly.nvars != group.dim:
        raise UsageError("polynomial width does not match the group")
    total = MPoly.zero(poly.space, poly.nvars)
    for g, gi in zip(group.elements, group.inverses):
        total = total + poly.act(g, gi)
    return total.scale(CycloScalar.rational(QQ(1, group.order)))


def class_series(g, trunc):
    """1/det(Id - t g) truncated, as cyclotomic coefficients.

    The power traces p_k = tr(g^k) give the elementary symmetric functions
    of the eigenvalues by Newton's identities, k e_k = sum_i (-1)^(i-1)
    e_(k-i) p_i, so det(Id - t g) = sum_k (-t)^k e_k; its inverse has
    coefficients h_d = sum_k (-1)^(k-1) e_k h_(d-k)."""
    ell = len(g)
    power = g
    traces = [sum((g[i][i] for i in range(ell)), _ZERO)]
    for _ in range(1, ell):
        power = mat_mul(power, g)
        traces.append(sum((power[i][i] for i in range(ell)), _ZERO))
    e = [_ONE]
    for k in range(1, ell + 1):
        acc = _ZERO
        for i in range(1, k + 1):
            term = e[k - i] * traces[i - 1]
            acc = acc + term if i % 2 else acc - term
        e.append(acc * QQ(1, k))
    h = [_ONE]
    for d in range(1, trunc + 1):
        acc = _ZERO
        for k in range(1, min(d, ell) + 1):
            if e[k]:
                term = e[k] * h[d - k]
                acc = acc + term if k % 2 else acc - term
        h.append(acc)
    return h


def molien(group: ReflectionGroup, trunc: int) -> tuple:
    """(1/|G|) sum_g 1/det(Id - t g) up to t^trunc, as a tuple of rational
    coefficients: the coefficient of t^d is dim S^G_d.  The summand is a
    class function, so it is evaluated once per conjugacy class and
    weighted by the class size.  The longest tuple built is cached, and
    shorter ones are its slices."""
    if trunc < 0:
        raise UsageError("truncation must be non-negative")
    ctx = _ctx(group)
    best = ctx.get("molien", ())
    if len(best) <= trunc:
        total = [_ZERO] * (trunc + 1)
        for rep, size in conjugacy_classes(group).classes:
            for k, c in enumerate(class_series(rep, trunc)):
                total[k] = total[k] + c * size
        unit = QQ(1, group.order)
        coeffs = []
        for c in total:
            if not c.is_rational():
                raise DomainError("Molien coefficient is not rational")
            coeffs.append(c.as_rational() * unit)
        best = ctx["molien"] = tuple(coeffs)
    return best[:trunc + 1]


def invariant_degrees(group: ReflectionGroup):
    """Degrees d_i with Molien = prod 1/(1 - t^d_i); sorted ascending."""
    ctx = _ctx(group)
    if "degrees" in ctx:
        return list(ctx["degrees"])
    ell = group.dim
    trunc = max(8, 2 * ell)
    cap = 4 * group.order + 8
    while True:
        found = _peel_degrees(molien(group, trunc), ell)
        if found is not None:
            prod = 1
            for d in found:
                prod *= d
            if prod == group.order and \
                    sum(d - 1 for d in found) == group.reflection_count:
                ctx["degrees"] = tuple(found)
                return list(found)
            raise DomainError(
                "Molien series does not factor as a reflection group's")
        if trunc > cap:
            raise DomainError(
                "invariant degree extraction failed below truncation cap")
        trunc *= 2


def harmonic_poincare(group: ReflectionGroup) -> RatPoly:
    """Poincare polynomial of the harmonics, prod_i (1 + t + ... + t^(d_i - 1))
    over the invariant degrees."""
    poin = RatPoly([1])
    for d in invariant_degrees(group):
        poin = poin * RatPoly([1] * d)
    return poin


def shape_product(group: ReflectionGroup, coeffs) -> list:
    """A series truncated at degree len(coeffs) - 1, times
    prod_i (1 - t^d_i) over the invariant degrees, truncated alike; exact
    on rational and on cyclotomic coefficients."""
    out = list(coeffs)
    for d in invariant_degrees(group):
        for k in range(len(out) - 1, d - 1, -1):
            out[k] = out[k] - out[k - d]
    return out


def _peel_degrees(series: tuple, ell: int):
    coeffs = list(series)
    found = []
    for _ in range(ell):
        d = next((k for k in range(1, len(coeffs)) if coeffs[k]), None)
        if d is None:
            return None
        found.append(d)
        # multiply by (1 - t^d) in place
        for k in range(len(coeffs) - 1, d - 1, -1):
            coeffs[k] -= coeffs[k - d]
    if any(coeffs[1:]):
        return None
    if coeffs[0] != 1:
        return None
    return found


# ---------------------------------------------------------------------------
# invariant bases and free generators


def invariant_basis(group: ReflectionGroup, d: int, space: str = CONTRAVARIANT):
    """Echelon basis of S^G_d: the generators' fixed points on the
    degree-d monomials (fixed_point_basis), its dimension checked against
    the Molien coefficient."""
    if d < 0:
        raise UsageError("degree must be non-negative")
    ctx = _ctx(group)
    key = ("inv", space, d)
    if key in ctx:
        return list(ctx[key])
    monomials = GradedBasis(space, group.dim, {d: [
        MPoly.monomial(space, m) for m in monomials_of_degree(group.dim, d)]})
    out = fixed_point_basis(monomials, group).basis(d)
    target = int(molien(group, d)[d])
    if len(out) != target:
        raise DomainError(
            "invariant space at degree %d has dimension %d, Molien says %d"
            % (d, len(out), target))
    ctx[key] = tuple(out)
    return list(out)


def free_generators(group: ReflectionGroup, space: str = CONTRAVARIANT):
    """Free homogeneous generators of the invariant ring, one per invariant
    degree (with multiplicity), chosen echelon-greedily above the products
    of the lower ones.  Sorted by degree."""
    ctx = _ctx(group)
    key = ("gens", space)
    if key in ctx:
        return list(ctx[key])
    degs = invariant_degrees(group)
    gens = []
    for d in sorted(set(degs)):
        want = degs.count(d)
        monos = monomials_of_degree(group.dim, d)
        dec_rows = []
        for e in range(1, d // 2 + 1):
            for p in invariant_basis(group, e, space):
                for q in invariant_basis(group, d - e, space):
                    dec_rows.append((p * q).coeff_vector(monos))
        solver = SpanSolver(dec_rows)
        got = 0
        for p in invariant_basis(group, d, space):
            v = p.coeff_vector(monos)
            if not solver.contains(v):
                gens.append(p)
                got += 1
                if got == want:
                    break
                solver = SpanSolver(solver.rows + [v])
        if got != want:
            raise DomainError(
                "expected %d new invariant generators at degree %d, found %d"
                % (want, d, got))
    ctx[key] = tuple(gens)
    return list(gens)


def ideal_component(group: ReflectionGroup, d: int, space: str = CONTRAVARIANT):
    """Echelon basis of F_d, the degree-d slice of the ideal spanned by all
    positive-degree invariants.  Equals span{m * f : f free generator}:
    the generator-built reference that project_to_H is tested against."""
    if d < 0:
        raise UsageError("degree must be non-negative")
    ctx = _ctx(group)
    key = ("ideal", space, d)
    if key in ctx:
        return list(ctx[key])
    nv = group.dim
    monos = monomials_of_degree(nv, d)
    rows = []
    for gen in free_generators(group, space):
        gd = gen.homogeneous_degree()
        if gd > d:
            continue
        for exps in monomials_of_degree(nv, d - gd):
            rows.append((MPoly.monomial(space, exps) * gen).coeff_vector(monos))
    rows, _ = rref(rows)
    out = [MPoly.from_vector(space, monos, r) for r in rows]
    ctx[key] = tuple(out)
    return list(out)


# ---------------------------------------------------------------------------
# harmonic bases


def _diagonal_signature(group: ReflectionGroup):
    """Root-of-unity exponent rows for the diagonal elements of a monomial
    group: (modulus M, rows) with element entries zeta_M^rows[i][j]; None if
    the group is not monomial or its diagonal part is trivial."""
    ctx = _ctx(group)
    if "diag" in ctx:
        return ctx["diag"]
    out = None
    diags = []
    monomial = True
    for g in group.elements:
        shape = _monomial_shape(g)
        if shape is None:
            monomial = False
            break
        sigma, scalars = shape
        if all(sigma[i] == i for i in range(len(sigma))):
            diags.append(tuple(scalars))
    if monomial and len(diags) > 1:
        distinct = {}
        for entries in diags:
            for s in entries:
                distinct[s.sort_key()] = s
        modulus = 1
        for s in distinct.values():
            r, acc = 1, s
            while acc != _ONE:
                acc = acc * s
                r += 1
            modulus = modulus * r // math.gcd(modulus, r)
        powers = {}
        acc = _ONE
        zeta = CycloScalar.root_of_unity(modulus)
        for e in range(modulus):
            powers.setdefault(acc.sort_key(), e)
            acc = acc * zeta
        exponent = {k: powers[k] for k in distinct}
        rows = [tuple(exponent[s.sort_key()] for s in entries)
                for entries in diags]
        out = (modulus, rows)
    ctx["diag"] = out
    return out


def _blocks(group: ReflectionGroup, degree: int):
    """Column indices of monomials_of_degree grouped by the character of
    the diagonal subgroup; a single full block when no split applies.

    The same partition is valid on both variable sides: the covariant and
    contravariant characters of a monomial under the diagonal subgroup are
    complex-conjugate, so they cut out identical column classes.
    """
    sig_data = _diagonal_signature(group)
    monos = monomials_of_degree(group.dim, degree)
    if sig_data is None:
        return [tuple(range(len(monos)))]
    modulus, rows = sig_data
    buckets = {}
    order = []
    for col, beta in enumerate(monos):
        sig = tuple(sum(k * b for k, b in zip(row, beta)) % modulus
                    for row in rows)
        if sig not in buckets:
            buckets[sig] = []
            order.append(sig)
        buckets[sig].append(col)
    return [tuple(buckets[sig]) for sig in order]


def harmonic_basis(group: ReflectionGroup, method: str = "derivative",
                   space: str = CONTRAVARIANT) -> GradedBasis:
    """Graded echelon basis of the harmonic space H, by degree up to N.

    method "derivative" (the production basis): span of all derivatives
    of the skew product, built top down, each degree from the first
    derivatives of the one above; it needs no invariants.  method "perp"
    (the independent cross-check): joint kernel of the differential
    operators given by the free invariant generators of the opposite side
    (equivalently, the annihilator of the opposite-side ideal), one
    elimination of all their images per diagonal-character block.  Both
    yield the same canonical bases; keeping the two routes separate is the
    point, so they share no solver code beyond rref and kernel_basis, and
    no differentiation code: the perp route applies its operators with
    mpoly.diff_apply, and the derivative route takes its first
    derivatives inline.

    dim H = |G| holds exactly when G is generated by reflections, so any
    other dimension raises DomainError.
    """
    if method not in ("perp", "derivative"):
        raise UsageError("method must be 'perp' or 'derivative'")
    ctx = _ctx(group)
    key = ("H", space, method)
    if key in ctx:
        return ctx[key]
    if method == "perp":
        degrees = {d: _harmonic_degree_perp(group, d, space)
                   for d in range(group.skew_degree() + 1)}
    else:
        degrees = _harmonic_degrees_derivative(group, space)
    basis = GradedBasis(space, group.dim, degrees)
    if basis.dimension() != group.order:
        raise DomainError(
            "harmonic space has dimension %d, not |G| = %d: the group is "
            "not generated by reflections" % (basis.dimension(), group.order))
    ctx[key] = basis
    return basis


def _harmonic_degree_perp(group, d, space):
    """H_d as the joint kernel of the operators of degree <= d (the free
    generators of the opposite side), one elimination per
    diagonal-character block: each operator adds one row per target
    monomial of its images of the block's monomials."""
    monos = monomials_of_degree(group.dim, d)
    ops = [op for op in free_generators(group, _opposite(space))
           if op.homogeneous_degree() <= d]
    global_rows = []
    for block in _blocks(group, d):
        targets = [MPoly.monomial(space, monos[c]) for c in block]
        rows = []
        for op in ops:
            by_target = {}
            for j, target in enumerate(targets):
                for t, val in diff_apply(op, target).terms.items():
                    by_target.setdefault(t, [_ZERO] * len(block))[j] = val
            rows.extend(by_target.values())
        ech, _ = rref(kernel_basis(rows, len(block)))
        for r in ech:
            row = [_ZERO] * len(monos)
            for pos, val in zip(block, r):
                row[pos] = val
            global_rows.append(row)
    global_rows.sort(key=_pivot_position)
    return [MPoly.from_vector(space, monos, r) for r in global_rows]


def _harmonic_degrees_derivative(group, space):
    """H_N is spanned by the skew product; H is closed under derivatives,
    so H_d = sum_i d/dx_i H_(d+1) below N: one elimination per degree, of
    the first derivatives of the basis one degree up."""
    nv = group.dim
    skew = group.skew_contravariant() if space == CONTRAVARIANT \
        else group.skew_covariant()
    n_top = group.skew_degree()
    lead = next(c for _, c in skew.sorted_terms() if c)
    levels = [[skew.scale(lead.inv())]]
    for d in range(n_top - 1, -1, -1):
        monos = monomials_of_degree(nv, d)
        index = {m: j for j, m in enumerate(monos)}
        rows = []
        for h in levels[-1]:
            for i in range(nv):
                row = [_ZERO] * len(monos)
                for exps, c in h.terms.items():
                    if exps[i]:
                        low = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
                        row[index[low]] = c * exps[i]
                rows.append(row)
        ech, _ = rref(rows)
        levels.append([MPoly.from_vector(space, monos, r) for r in ech])
    return dict(enumerate(reversed(levels)))


def _pivot_position(row):
    for i, v in enumerate(row):
        if v:
            return i
    return len(row)


# ---------------------------------------------------------------------------
# projection and fixed points


def _projection_solver(group, d, space):
    """H_d, the opposite-side H'_d and the inverse of the Gram matrix
    [a, h] (a in H'_d, h in H_d).  F_d is the annihilator of H'_d, so h is
    the harmonic part of p exactly when [a, p] = [a, h] for all a."""
    ctx = _ctx(group)
    key = ("proj", space, d)
    if key in ctx:
        return ctx[key]
    hbasis = harmonic_basis(group, space=space).basis(d)
    dual = harmonic_basis(group, space=_opposite(space)).basis(d)
    if len(hbasis) != len(dual):
        nmonos = len(monomials_of_degree(group.dim, d))
        raise DomainError(
            "H_%d and F_%d do not fill S_%d (dims %d + %d != %d)"
            % (d, d, d, len(hbasis), nmonos - len(dual), nmonos))
    try:
        gram_inv = mat_inv([[pairing(a, h) for h in hbasis] for a in dual])
    except DomainError:
        raise DomainError("H_%d and F_%d overlap" % (d, d)) from None
    got = (hbasis, dual, gram_inv)
    ctx[key] = got
    return got


def by_degree(poly: MPoly):
    """The homogeneous parts of poly as sorted (degree, part) pairs."""
    parts = {}
    for exps, c in poly.terms.items():
        parts.setdefault(sum(exps), {})[exps] = c
    return [(d, MPoly(poly.space, poly.nvars, dict(t)))
            for d, t in sorted(parts.items())]


def project_to_H(group: ReflectionGroup, poly: MPoly):
    """Split poly = h + f with h harmonic and f in the invariant ideal.

    Works degree by degree through the Gram matrix of the pairing with the
    opposite-side harmonics; above N the harmonic part is zero.
    """
    if poly.nvars != group.dim:
        raise UsageError("polynomial width does not match the group")
    space = poly.space
    n_top = group.skew_degree()
    h_total = MPoly.zero(space, poly.nvars)
    f_total = MPoly.zero(space, poly.nvars)
    for d, part in by_degree(poly):
        if d > n_top:
            f_total = f_total + part
            continue
        hbasis, dual, gram_inv = _projection_solver(group, d, space)
        coords = mat_vec(gram_inv, [pairing(a, part) for a in dual])
        h = MPoly.zero(space, poly.nvars)
        for c, b in zip(coords, hbasis):
            if c:
                h = h + b.scale(c)
        h_total = h_total + h
        f_total = f_total + (part - h)
    return h_total, f_total


def fixed_point_basis(graded: GradedBasis, subgroup: ReflectionGroup) -> GradedBasis:
    """Echelon bases of the subgroup-fixed vectors inside each degree piece.

    The fixed coordinates are the common left kernel of A_g - Id over the
    subgroup's generators g, A_g = action_matrix(graded, d, g), so no group
    average is taken.  A generator that moves a piece out of itself raises
    a diagnostic error.
    """
    if subgroup.dim != graded.nvars:
        raise UsageError("subgroup dimension does not match the basis")
    out = {}
    for d in sorted(graded.degrees):
        k = graded.dim(d)
        columns = []
        for g in subgroup.generators:
            try:
                act = action_matrix(graded, d, g)
            except VerificationError:
                raise VerificationError(
                    "subgroup does not stabilize the degree-%d piece" % d
                ) from None
            columns.extend([act[i][j] - _ONE if i == j else act[i][j]
                            for i in range(k)] for j in range(k))
        monos, vecs, _ = graded.piece(d)
        ech, _ = rref(mat_mul(kernel_basis(columns, k), vecs))
        if ech:
            out[d] = [MPoly.from_vector(graded.space, monos, r) for r in ech]
    return GradedBasis(graded.space, graded.nvars, out)


def action_matrix(graded: GradedBasis, d: int, mat):
    """Matrix of a linear map on the degree-d piece of `graded`: row i
    holds the coordinates of the image of its i-th basis polynomial, which
    are the entries at the piece's pivot columns.  Raises a diagnostic
    error when an image leaves the piece.

    The map substitutes a linear form for each variable (the rows of
    mat^-1 on S(V*), the columns of mat on S(V)); the matrix is inverted
    once, and each monomial the piece uses is sent through the
    substitution once, so the basis rows only combine those images."""
    monos, ech, pivots = graded.piece(d)
    n = graded.nvars
    mat = coerce_matrix(mat)
    if len(mat) != n or any(len(row) != n for row in mat):
        raise UsageError("matrix size does not match variable count")
    if graded.space == CONTRAVARIANT:
        sub = mat_inv(mat)
    else:
        sub = [list(col) for col in zip(*mat)]
    totals = [{} for _ in ech]
    # each monomial the piece uses, with the rows it enters and its
    # coefficient there
    uses = [(m, [(total, c) for total, c in zip(totals, col) if c])
            for m, col in zip(monos, zip(*ech))]
    uses = [u for u in uses if u[1]]
    for t, image in _monomial_images(sub, [m for m, _ in uses]):
        for total, c in uses[t][1]:
            for m, v in image.items():
                v = c if v is _ONE else c * v
                prev = total.get(m)
                total[m] = v if prev is None else prev + v
    rows = []
    for total in totals:
        coords = echelon_coordinates(
            ech, pivots, [total.get(m, _ZERO) for m in monos])
        if coords is None:
            raise VerificationError("action leaves the spanned subspace")
        rows.append(coords)
    return rows


def _monomial_images(sub, targets):
    """Yield (t, image of X^targets[t]) for every exponent tuple in
    `targets`, all of one degree, under X_i -> sum_j sub[i][j] X_j; images
    are {exponents: coefficient}, and a coefficient equal to one may be
    _ONE itself, so callers can skip the product.

    A monomial substitution sends each monomial to one term
    (mpoly._monomial_image).  Otherwise a monomial is read as its sorted
    sequence of variables (i_1 <= ... <= i_d), and its image as
    img(i_2 ... i_d) * (row i_1 of sub), so the monomials needed are the
    suffixes of the targets' sequences.  They are visited depth first, so
    each image is computed once and only the images on the current path
    are held."""
    shape = _monomial_shape(sub)
    if shape is not None:
        image = _monomial_image(shape)
        for t, e in enumerate(targets):
            m, c = image(e)
            yield t, {m: c}
        return
    forms = [[(j, _ONE if v == 1 else v) for j, v in enumerate(row) if v]
             for row in sub]
    seqs = {tuple(i for i, x in enumerate(e) for _ in range(x)): t
            for t, e in enumerate(targets)}
    needed = set()
    for seq in seqs:
        while seq not in needed:
            needed.add(seq)
            seq = seq[1:]
    # sorted by the reversed sequence, each suffix comes right after the
    # path from the empty sequence to it
    path = [{(0,) * len(sub): _ONE}]
    for seq in sorted(needed, key=lambda seq: seq[::-1]):
        if seq:
            path[len(seq):] = [_times(path[len(seq) - 1], forms[seq[0]])]
        t = seqs.get(seq)
        if t is not None:
            yield t, path[-1]


def _times(image, form):
    """The polynomial {exponents: coefficient} times a linear form given as
    (variable, coefficient) pairs, keeping _ONE for a product of ones."""
    acc = {}
    for m, c in image.items():
        for j, v in form:
            t = m[:j] + (m[j] + 1,) + m[j + 1:]
            w = c if v is _ONE else v if c is _ONE else c * v
            prev = acc.get(t)
            acc[t] = w if prev is None else prev + w
    return {t: c for t, c in acc.items() if c}


def action_trace(graded: GradedBasis, d: int, mat) -> CycloScalar:
    """Trace of the linear map of action_matrix on the degree-d piece."""
    rows = action_matrix(graded, d, mat)
    return sum((rows[i][i] for i in range(len(rows))), _ZERO)
