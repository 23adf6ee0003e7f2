"""Invariants and harmonics of a reflection group.

The module computes, exactly:

  * the Molien series, summed once per conjugacy class: each class's
    1/det(Id - t g) comes from the power traces tr(g^k) through Newton's
    identities;
  * the invariant degrees d_1 <= ... <= d_l, peeled off the Molien series;
  * the harmonic space H as canonical reduced-echelon graded bases, by the
    production route "derivative" (derivatives of the skew product) and the
    cross-check "perp" (joint kernel of the invariant operators);
  * on the echelon pieces of a GradedBasis, each derived once, the matrix
    of a linear map (coordinates are the entries at the pivot columns) and
    the fixed points of a subgroup (the common left kernel of g - Id over
    its generators);
  * the projection S_d = H_d + F_d through the Gram matrix of the pairing
    of H_d with the opposite-side H'_d, whose annihilator is F_d;
  * for the cross-checks only: the Reynolds (averaging) projection, echelon
    bases of the invariant spaces S^G_d, free generators and the graded
    invariant ideal F.

Harmonic degrees are capped at N = deg(skew product); H vanishes above N.

Internally the per-degree solvers run on raw rational vectors whenever the
group's invariants and skew product have rational coefficients (true for
every catalog model), falling back to cyclotomic scalars otherwise.  For
groups of monomial matrices the solve is split into blocks indexed by the
characters of the diagonal subgroup, which keeps the big degrees cheap.
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
    _monomial_shape,
    coerce_matrix,
    monomials_of_degree,
    pairing,
)
from .scalars import QQ, CycloScalar, RatPoly, RatSeries

_ZERO = CycloScalar.rational(0)
_ONE = CycloScalar.rational(1)


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


def _class_series(g, trunc):
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


def molien(group: ReflectionGroup, trunc: int) -> RatSeries:
    """(1/|G|) sum_g 1/det(Id - t g): coefficient of t^d is dim S^G_d.
    The summand is a class function, so it is evaluated once per conjugacy
    class and weighted by the class size."""
    if trunc < 0:
        raise UsageError("truncation must be non-negative")
    ctx = _ctx(group)
    best = ctx.get("molien")
    if best is None or best.trunc < trunc:
        total = [_ZERO] * (trunc + 1)
        for rep, size in conjugacy_classes(group).classes:
            for k, c in enumerate(_class_series(rep, trunc)):
                total[k] = total[k] + c * size
        unit = QQ(1, group.order)
        coeffs = []
        for c in total:
            if not c.is_rational():
                raise DomainError("Molien coefficient is not rational")
            coeffs.append(c.as_rational() * unit)
        best = RatSeries(coeffs, trunc)
        ctx["molien"] = best
    return RatSeries(list(best.coeffs[:trunc + 1]), trunc)


def invariant_degrees(group: ReflectionGroup):
    """Degrees d_i with Molien = prod 1/(1 - t^d_i); sorted ascending."""
    ctx = _ctx(group)
    if "degrees" in ctx:
        return list(ctx["degrees"])
    ell = group.dim
    trunc = max(8, 2 * ell)
    cap = 4 * group.order + 8
    while True:
        series = molien(group, trunc)
        found = _peel_degrees(series, ell, trunc)
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


def _peel_degrees(series: RatSeries, ell: int, trunc: int):
    coeffs = list(series.coeffs)
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
    """Echelon basis of S^G_d.

    Products of lower-degree invariants are collected first; missing
    dimensions (new free generators) are topped up by Reynolds averages of
    degree-d monomials.  The dimension is checked against the Molien
    coefficient.
    """
    if d < 0:
        raise UsageError("degree must be non-negative")
    ctx = _ctx(group)
    key = ("inv", space, d)
    if key in ctx:
        return list(ctx[key])
    nv = group.dim
    if d == 0:
        out = [MPoly.constant(space, nv, 1)]
        ctx[key] = tuple(out)
        return list(out)
    target = molien(group, d).coeffs[d]
    target = int(target)
    monos = monomials_of_degree(nv, d)
    rows = []
    if target:
        for e in range(1, d // 2 + 1):
            for p in invariant_basis(group, e, space):
                for q in invariant_basis(group, d - e, space):
                    rows.append((p * q).coeff_vector(monos))
        if rows:
            rows, _ = rref(rows)
        if len(rows) < target:
            solver = SpanSolver(rows)
            for exps in monos:
                avg = reynolds(group, MPoly.monomial(space, exps))
                if avg.is_zero():
                    continue
                v = avg.coeff_vector(monos)
                if not solver.contains(v):
                    rows.append(v)
                    if len(rows) == target:
                        break
                    solver = SpanSolver(rows)
            rows, _ = rref(rows)
        if len(rows) != target:
            raise DomainError(
                "invariant space at degree %d has dimension %d, Molien says %d"
                % (d, len(rows), target))
    out = [MPoly.from_vector(space, monos, r) for r in rows]
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
# rational fast path helpers

def _rational_terms(poly: MPoly):
    """{exponent: mpq} if every coefficient is rational, else None."""
    out = {}
    for exps, c in poly.terms.items():
        if not c.is_rational():
            return None
        out[exps] = c.as_rational()
    return out


def _diff_image(op_terms, beta):
    """Terms of D_op(X^beta) as {exponent: coefficient}.

    op_terms maps exponents to coefficients (rational or cyclotomic);
    the falling-factorial integers multiply either kind.
    """
    out = {}
    for alpha, c in op_terms.items():
        coef = c
        target = []
        ok = True
        for b, a in zip(beta, alpha):
            if a > b:
                ok = False
                break
            f = 1
            for k in range(a):
                f *= b - k
            if f != 1:
                coef = coef * f
            target.append(b - a)
        if not ok:
            continue
        t = tuple(target)
        prev = out.get(t)
        out[t] = coef if prev is None else prev + coef
    return {t: v for t, v in out.items() if v}


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


def _local_rref_to_global(vectors, block, ncols, zero):
    """Row-reduce block-local vectors and inflate them to global width."""
    if not vectors:
        return []
    ech, _ = rref(vectors)
    out = []
    for r in ech:
        row = [zero] * ncols
        for pos, val in zip(block, r):
            row[pos] = val
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# harmonic bases


def harmonic_basis(group: ReflectionGroup, method: str = "derivative",
                   space: str = CONTRAVARIANT) -> GradedBasis:
    """Graded echelon basis of the harmonic space H, by degree up to N.

    method "derivative" (the production basis): span of the derivatives of
    the skew product by all opposite-side monomials; it needs no
    invariants.  method "perp" (the independent cross-check): joint kernel
    of the differential operators given by the free invariant generators
    of the opposite side (equivalently, the annihilator of the
    opposite-side ideal).  Both yield the same canonical bases; keeping the
    two routes separate is the point, so they share no solver code.
    """
    if method not in ("perp", "derivative"):
        raise UsageError("method must be 'perp' or 'derivative'")
    ctx = _ctx(group)
    key = ("H", space, method)
    if key in ctx:
        return ctx[key]
    n_top = group.skew_degree()
    degrees = {}
    for d in range(n_top + 1):
        if method == "perp":
            degrees[d] = _harmonic_degree_perp(group, d, space)
        else:
            degrees[d] = _harmonic_degree_derivative(group, d, space)
    basis = GradedBasis(space, group.dim, degrees)
    ctx[key] = basis
    return basis


def _operator_terms(group, space):
    """Free generators of the side opposite to `space`, as term dicts;
    rational dicts when every generator is rational."""
    gens = free_generators(group, _opposite(space))
    gens = sorted(gens, key=lambda p: p.homogeneous_degree())
    rational = True
    terms = []
    for g in gens:
        rt = _rational_terms(g)
        if rt is None:
            rational = False
            break
        terms.append((g.homogeneous_degree(), rt))
    if not rational:
        terms = [(g.homogeneous_degree(), dict(g.terms)) for g in gens]
    return terms, rational


def _harmonic_degree_perp(group, d, space):
    nv = group.dim
    if d == 0:
        return [MPoly.constant(space, nv, 1)]
    monos = monomials_of_degree(nv, d)
    ops, rational = _operator_terms(group, space)
    ops = [(deg, t) for deg, t in ops if deg <= d]
    zero = QQ(0) if rational else _ZERO
    one = QQ(1) if rational else _ONE
    global_rows = []
    for block in _blocks(group, d):
        # vectors: columns of the current solution basis, block-local
        vectors = None
        ncur = len(block)
        for op_deg, op in ops:
            images = [_diff_image(op, monos[c]) for c in block]
            if vectors is not None:
                combined = []
                for vec in vectors:
                    acc = {}
                    for j, coeff in enumerate(vec):
                        if not coeff:
                            continue
                        for t, val in images[j].items():
                            prev = acc.get(t)
                            nxt = (coeff * val) if prev is None \
                                else prev + coeff * val
                            acc[t] = nxt
                    combined.append({t: v for t, v in acc.items() if v})
            else:
                combined = images
            targets = sorted({t for img in combined for t in img})
            if not targets:
                continue
            tindex = {t: r for r, t in enumerate(targets)}
            rows = [[zero] * len(combined) for _ in targets]
            for j, img in enumerate(combined):
                for t, val in img.items():
                    rows[tindex[t]][j] = val
            ker = kernel_basis(rows, len(combined), one=one)
            if vectors is None:
                vectors = ker
            else:
                vectors = [
                    [sum((kv * vectors[j][c] for j, kv in enumerate(k) if kv),
                         zero) for c in range(ncur)]
                    for k in ker]
            if not vectors:
                break
        if vectors is None:
            vectors = [[one if c == j else zero for c in range(ncur)]
                       for j in range(ncur)]
        global_rows.extend(
            _local_rref_to_global(vectors, block, len(monos), zero))
    global_rows.sort(key=_pivot_position)
    return [MPoly.from_vector(space, monos, r) for r in global_rows]


def _harmonic_degree_derivative(group, d, space):
    nv = group.dim
    skew = group.skew_contravariant() if space == CONTRAVARIANT \
        else group.skew_covariant()
    n_top = group.skew_degree()
    if d == n_top:
        lead = next(c for _, c in skew.sorted_terms() if c)
        return [skew.scale(lead.inv())]
    monos = monomials_of_degree(nv, d)
    skew_terms = _rational_terms(skew)
    rational = skew_terms is not None
    if not rational:
        skew_terms = dict(skew.terms)
    zero = QQ(0) if rational else _ZERO
    mono_index = {m: i for i, m in enumerate(monos)}
    a_monos = monomials_of_degree(nv, n_top - d)
    a_blocks = _blocks(group, n_top - d)
    global_rows = []
    for ablock in a_blocks:
        local_rows = []
        support = set()
        for pos in ablock:
            img = {}
            alpha = a_monos[pos]
            for beta, c in skew_terms.items():
                coef = c
                ok = True
                target = []
                for b, a in zip(beta, alpha):
                    if a > b:
                        ok = False
                        break
                    f = 1
                    for k in range(a):
                        f *= b - k
                    if f != 1:
                        coef = coef * f
                    target.append(b - a)
                if ok:
                    t = tuple(target)
                    prev = img.get(t)
                    img[t] = coef if prev is None else prev + coef
            img = {t: v for t, v in img.items() if v}
            if img:
                local_rows.append(img)
                support.update(img)
        if not local_rows:
            continue
        cols = sorted(support, key=lambda t: mono_index[t])
        cindex = {t: j for j, t in enumerate(cols)}
        dense = [[zero] * len(cols) for _ in local_rows]
        for r, img in enumerate(local_rows):
            for t, v in img.items():
                dense[r][cindex[t]] = v
        ech, _ = rref(dense)
        for row in ech:
            out = [zero] * len(monos)
            for j, v in enumerate(row):
                out[mono_index[cols[j]]] = v
            global_rows.append(out)
    global_rows.sort(key=_pivot_position)
    return [MPoly.from_vector(space, monos, r) for r in global_rows]


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
        ech, _ = rref(mat_mul(kernel_basis(columns, k, one=_ONE), vecs))
        if ech:
            out[d] = [MPoly.from_vector(graded.space, monos, r) for r in ech]
    return GradedBasis(graded.space, graded.nvars, out)


def action_matrix(graded: GradedBasis, d: int, mat):
    """Matrix of a linear map on the degree-d piece of `graded`: row i
    holds the coordinates of the image of its i-th basis polynomial, which
    are the entries at the piece's pivot columns.  Raises a diagnostic
    error when an image leaves the piece."""
    monos, ech, pivots = graded.piece(d)
    mat_inverse = None
    if graded.space == CONTRAVARIANT:
        mat_inverse = mat_inv(coerce_matrix(mat))
    rows = []
    for p in graded.basis(d):
        coords = echelon_coordinates(
            ech, pivots, p.act(mat, mat_inverse).coeff_vector(monos))
        if coords is None:
            raise VerificationError("action leaves the spanned subspace")
        rows.append(coords)
    return rows


def action_trace(graded: GradedBasis, d: int, mat) -> CycloScalar:
    """Trace of the linear map of action_matrix on the degree-d piece."""
    rows = action_matrix(graded, d, mat)
    return sum((rows[i][i] for i in range(len(rows))), _ZERO)
