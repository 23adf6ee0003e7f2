"""Invariants and harmonics of a reflection group.

The module computes, exactly:

  * the Molien series, summed once per conjugacy class: each class's
    1/det(Id - t g) is cached with the group on integer numerators, from
    the power traces tr(g^k) through Newton's identities, and extended
    when a longer truncation is asked for;
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

The perp route builds its rows from the coefficients of the invariant
operators as they are, and `rref` eliminates rows that hold only
rationals on integers.  It takes H_d as one joint kernel per block of
degree-d monomials: the images of the block under every invariant
operator of degree <= d, stacked into one matrix.  For groups of
monomial matrices the blocks are indexed by the characters of the
diagonal subgroup (an invariant operator keeps the character, so the
blocks do not interact); otherwise all monomials form one block.

The derivative route needs no split, since it eliminates only
ell * dim H_(d+1) rows per degree.  When the skew product is rational
(every catalog group's is) it never leaves the integers: each degree is
kept as the primitive rows of `linalg.rref_integer`, the integer core of
`rref`, and differentiated by multiplying by exponents; CycloScalars and
polynomials are built only for the returned basis, one division by each
pivot.  Any other skew product goes through `rref` on CycloScalar rows.
"""

from __future__ import annotations

import math

from .errors import DomainError, UsageError, VerificationError
from .groups import ReflectionGroup, conjugacy_classes
from .linalg import (SpanSolver, echelon_coordinates, integer_row,
                     kernel_basis, mat_inv, mat_mul, mat_vec,
                     rational_echelon, rref, rref_integer)
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
from .scalars import (CYC_ONE, CYC_ZERO, QQ, CycloScalar, RatPoly, _combine,
                      _power_table, dot_products, euler_phi, from_numerators,
                      numerators_at)

_ZERO, _ONE = CYC_ZERO, CYC_ONE


def _opposite(space: str) -> str:
    return COVARIANT if space == CONTRAVARIANT else CONTRAVARIANT


class GradedBasis:
    """Per-degree echelon bases of a graded subspace of polynomials.
    piece(d) derives a piece's coefficient rows and pivot columns once, on
    first use, and checks its reduced echelon form then; uses(d) derives
    its nonzero pattern once."""

    def __init__(self, space: str, nvars: int, degrees: dict):
        self.space = space
        self.nvars = nvars
        self.degrees = {d: list(polys) for d, polys in degrees.items() if polys}
        self.max_degree = max(self.degrees, default=0)
        self._pieces = {}
        self._uses = {}

    def piece(self, d: int):
        """(monomials, coefficient rows, pivot columns) of the degree-d
        piece, empty or not; UsageError unless it is homogeneous and in
        reduced echelon form, which _echelon_pivots checks on the rows
        directly, with no elimination."""
        got = self._pieces.get(d)
        if got is None:
            basis = self.basis(d)
            monos = monomials_of_degree(self.nvars, d)
            vecs = [p.coeff_vector(monos) for p in basis]
            pivots = _echelon_pivots(vecs)
            if pivots is None or any(p.homogeneous_degree() != d
                                     for p in basis):
                raise UsageError(
                    "degree-%d piece is not in reduced echelon form" % d)
            got = self._pieces[d] = (monos, vecs, pivots)
        return got

    def uses(self, d: int):
        """The monomials the degree-d piece uses, each with the rows it
        enters and its coefficient there: (monomial, [(row, coefficient),
        ...]) pairs in the piece's monomial order."""
        got = self._uses.get(d)
        if got is None:
            monos, ech, _ = self.piece(d)
            got = [(m, [(r, c) for r, c in enumerate(col) if c])
                   for m, col in zip(monos, zip(*ech))]
            got = self._uses[d] = [u for u in got if u[1]]
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


def _echelon_pivots(rows):
    """The pivot columns of rows in reduced echelon form, or None if they
    are not in it: each row's leading entry is 1, the pivots increase
    strictly, and each pivot column is zero in the rows above (the rows
    below lead further right).  Such rows are their own rref."""
    pivots = []
    for row in rows:
        c = next((j for j, a in enumerate(row) if a), None)
        if c is None or row[c] != 1 or (pivots and c <= pivots[-1]):
            return None
        if any(above[c] for above in rows[:len(pivots)]):
            return None
        pivots.append(c)
    return pivots


# ---------------------------------------------------------------------------
# per-group cache


def _ctx(group: ReflectionGroup) -> dict:
    """The group's cache, held by the group itself, so it is freed with
    the group even where a value (a character table) refers back to it."""
    return group._cache


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


class _ClassSeries:
    """1/det(Id - t g) for one matrix g, on integers, extended on demand.
    Over n, the lcm of its entries' minimal conductors, g is M / D with M
    in Z[zeta_n].  So the power traces P_k of M and the s_k of
    det(Id - t M) = 1 - sum_k s_k t^k lie in Z[zeta_n], and Newton's
    identities k s_k = P_k - sum_(j<k) s_j P_(k-j) divide exactly.  h[d] =
    sum_k s_k h[d-k] is the numerator of the coefficient h[d] / D^d."""

    def __init__(self, g):
        flat = [v for row in g for v in row]
        self.n = n = math.lcm(*(v.reduce().order for v in flat))
        nums, self.den = numerators_at(flat, n)
        phi, ell = euler_phi(n), len(g)
        self.table = [_power_table(n)[k % n] for k in range(2 * phi - 1)]
        m = [[nums[e:e + phi] for e in range(r, r + ell * phi, phi)]
             for r in range(0, ell * ell * phi, ell * phi)]
        power, traces, self.s = m, [], []
        for k in range(1, ell + 1):
            if k > 1:
                power = [[self._dot(zip(row, col)) for col in zip(*m)]
                         for row in power]
            diagonal = [power[i][i] for i in range(ell)]
            traces.append(tuple(map(sum, zip(*diagonal))))
            acc = self._dot(zip(self.s, traces[-2::-1]))
            self.s.append(tuple((p - a) // k for p, a in zip(traces[-1], acc)))
        self.h = [(1,) + (0,) * (phi - 1)]

    def _dot(self, pairs):
        """sum(a * b for a, b in pairs), convolved, then reduced once."""
        conv = [0] * len(self.table)
        for a, b in pairs:
            for i, x in enumerate(a):
                if x:
                    for k, y in enumerate(b, i):
                        conv[k] += x * y
        return tuple(_combine(conv, self.table, len(self.table) // 2 + 1))

    def extend(self, trunc: int):
        for d in range(len(self.h), trunc + 1):
            self.h.append(self._dot(zip(self.s, self.h[d - 1::-1])))

    def shaped(self, degrees, trunc: int) -> list:
        """The coefficients up to t^trunc times prod (1 - t^e) over
        `degrees`, as scalars: shape_product runs on each coordinate of
        the numerators over D^trunc."""
        self.extend(trunc)
        cols = [shape_product(degrees, [x * self.den ** (trunc - d)
                                        for d, x in enumerate(col)])
                for col in zip(*self.h[:trunc + 1])]
        return from_numerators([x for row in zip(*cols) for x in row],
                               self.den ** trunc, self.n)


def class_series(g, trunc):
    """1/det(Id - t g) up to t^trunc, as scalars, computed on integers by
    one uncached _ClassSeries (class_series_states caches them)."""
    return _ClassSeries(g).shaped((), trunc)


def class_series_states(group: ReflectionGroup) -> list:
    """The _ClassSeries of each conjugacy class, cached with the group."""
    ctx = _ctx(group)
    if "series" not in ctx:
        ctx["series"] = [_ClassSeries(rep)
                         for rep, _ in conjugacy_classes(group).classes]
    return ctx["series"]


def molien(group: ReflectionGroup, trunc: int) -> tuple:
    """(1/|G|) sum_g 1/det(Id - t g) up to t^trunc, as a tuple of rational
    coefficients: the coefficient of t^d is dim S^G_d.  The summand is a
    class function: the cached series of each conjugacy class, weighted
    by the class size and summed by dot_products on integers.  The
    longest tuple built is cached, and shorter ones are its slices."""
    if trunc < 0:
        raise UsageError("truncation must be non-negative")
    ctx = _ctx(group)
    best = ctx.get("molien", ())
    if len(best) <= trunc:
        sizes = [CycloScalar.rational(k)
                 for k in conjugacy_classes(group).sizes]
        columns = [s.shaped((), trunc) for s in class_series_states(group)]
        coeffs = []
        for c in dot_products([sizes], list(zip(*columns)))[0]:
            if not c.is_rational():
                raise DomainError("Molien coefficient is not rational")
            coeffs.append(c.as_rational() * QQ(1, group.order))
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


def shape_product(degrees, coeffs) -> list:
    """A series truncated at degree len(coeffs) - 1, times
    prod_i (1 - t^d_i) over the given degrees, truncated alike; exact on
    integer, rational and cyclotomic coefficients."""
    out = list(coeffs)
    for d in degrees:
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
    the first derivatives of the basis one degree up.  A rational skew
    product stays on the primitive integer rows of rref_integer, which are
    differentiated as they are: scaling a row keeps the span, and the
    echelon form is canonical."""
    nv = group.dim
    skew = group.skew_contravariant() if space == CONTRAVARIANT \
        else group.skew_covariant()
    n_top = group.skew_degree()
    monos = monomials_of_degree(nv, n_top)
    top = skew.coeff_vector(monos)
    if all(c.is_rational() for c in top):
        top = integer_row(top)
        zero, eliminate, finish = 0, rref_integer, rational_echelon
    else:
        zero, eliminate, finish = _ZERO, rref, lambda rows, _: rows
    rows, pivots = eliminate([top])
    levels = {n_top: finish(rows, pivots)}
    for d in range(n_top - 1, -1, -1):
        low = monomials_of_degree(nv, d)
        index = {m: j for j, m in enumerate(low)}
        derived = []
        for row in rows:
            terms = [(m, c) for m, c in zip(monos, row) if c]
            for i in range(nv):
                out = [zero] * len(low)
                for exps, c in terms:
                    e = exps[i]
                    if e:
                        out[index[exps[:i] + (e - 1,) + exps[i + 1:]]] = c * e
                derived.append(out)
        rows, pivots = eliminate(derived)
        monos = low
        levels[d] = finish(rows, pivots)
    return {d: [MPoly.from_vector(space, monomials_of_degree(nv, d), r)
                for r in levels[d]] for d in range(n_top + 1)}


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


def _harmonic_coords(group, d, part):
    """The coordinates on the H_d basis of the harmonic part of `part`, a
    polynomial of degree d: the Gram inverse applied to the pairings of
    the opposite-side H'_d with part.  Since the H_d basis is in reduced
    echelon form, they are also the harmonic part's entries at the pivot
    columns."""
    _, dual, gram_inv = _projection_solver(group, d, part.space)
    return mat_vec(gram_inv, [pairing(a, part) for a in dual])


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
        hbasis = harmonic_basis(group, space=space).basis(d)
        h = MPoly.zero(space, poly.nvars)
        for c, b in zip(_harmonic_coords(group, d, part), hbasis):
            if c:
                h = h + b.scale(c)
        h_total = h_total + h
        f_total = f_total + (part - h)
    return h_total, f_total


def fixed_point_basis(graded: GradedBasis, subgroup: ReflectionGroup) -> GradedBasis:
    """Echelon bases of the subgroup-fixed vectors inside each degree piece.

    The fixed coordinates are the common left kernel of A_g - Id over the
    subgroup's generators g, A_g = action_matrix(graded, d, g), so no group
    average is taken; each generator's substitution is formed once for all
    degrees.  A generator that moves a piece out of itself raises a
    diagnostic error.
    """
    if subgroup.dim != graded.nvars:
        raise UsageError("subgroup dimension does not match the basis")
    subs = [substitution(graded, g) for g in subgroup.generators]
    out = {}
    for d in sorted(graded.degrees):
        k = graded.dim(d)
        columns = []
        for sub in subs:
            try:
                act = substituted_action(graded, d, sub)
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

    The map substitutes a linear form for each variable, see
    `substitution`."""
    return substituted_action(graded, d, substitution(graded, mat))


def substitution(graded: GradedBasis, mat):
    """The rows sub with X_i -> sum_j sub[i][j] X_j the substitution by
    which `mat` acts on the polynomials of `graded`: the rows of mat^-1 on
    S(V*), the columns of mat on S(V).  A caller acting by one matrix on
    several pieces forms this once and calls `substituted_action`."""
    n = graded.nvars
    mat = coerce_matrix(mat)
    if len(mat) != n or any(len(row) != n for row in mat):
        raise UsageError("matrix size does not match variable count")
    if graded.space == CONTRAVARIANT:
        return mat_inv(mat)
    return [list(col) for col in zip(*mat)]


def substituted_action(graded: GradedBasis, d: int, sub):
    """action_matrix on the degree-d piece, given the `substitution` of
    the matrix.  Each monomial the piece uses is sent through the
    substitution once, so the basis rows only combine those images."""
    monos, ech, pivots = graded.piece(d)
    totals = [{} for _ in ech]
    uses = graded.uses(d)
    for t, image in _monomial_images(sub, [m for m, _ in uses]):
        for r, c in uses[t][1]:
            total = totals[r]
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
