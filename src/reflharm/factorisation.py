"""Tensor factorisation of harmonics along a reflection subgroup.

The central map sends a subgroup harmonic h' and a subgroup-fixed harmonic
k of the big group to the harmonic part of h'k.  Degree by degree this
assembles to a linear isomorphism

    H(G') (x) H(G)^{G'}  ->  H(G)

kept as one coordinate matrix M_ij per bidegree (i, j) and variable side
on the H(G) basis, each built on first use.  Row (h', k) of M_ij is one
Gram row: the inverse Gram matrix of H(G)_{i+j} applied to the pairings
of the opposite-side harmonics with h'k, so no harmonic polynomial is
built, and a pair takes |G| Gram rows per side.  The map is bilinear, so
everything else reads M_ij: xi_apply takes (c_i(h') (x) c_j(k)) M_ij from
the coordinates of its factors; verify_factorisation reads full rank off
M_ij, together with the identity dim H(G)^{G'} = |G|/|G'| and the
Poincare factorisation; equivariance_check tests M_ij against action
matrices, applying A^fix_j along the k index of M_ij and then A'_i along
the h' index, never forming their Kronecker product.  A dual route
realises the same map through differentiation of the skew product;
xi_dual_compare records the proportionality scalar between the routes
per basis pair instead of forcing equality, since some pairs differ by a
nonzero constant.  The report derives each factor's images once, D_h of
the subgroup's skew product per h and d_map(a), e_map(a) per a, so a pair
costs one product with M_ij and one derivative D_h d_map(a).
"""

from __future__ import annotations

import itertools
import weakref

from .errors import UsageError
from .groups import ReflectionGroup
from .harmonics import (
    GradedBasis,
    _harmonic_coords,
    by_degree,
    fixed_point_basis,
    harmonic_basis,
    harmonic_poincare,
    invariant_degrees,
    substituted_action,
)
from .linalg import (echelon_coordinates, kron_apply, kron_vec, mat_inv,
                     mat_mul, rref, vec_mat)
from .mpoly import CONTRAVARIANT, COVARIANT, MPoly, coerce_matrix, diff_apply
from .scalars import CycloScalar

_ZERO = CycloScalar.rational(0)
_NOT_SUB_HARMONIC = "first factor is not a subgroup harmonic"
_NOT_FIXED_HARMONIC = "second factor is not a subgroup-fixed harmonic"
_PAIR_CACHE = weakref.WeakKeyDictionary()


def _pair_ctx(group: ReflectionGroup, subgroup: ReflectionGroup) -> dict:
    per = _PAIR_CACHE.get(group)
    if per is None:
        per = weakref.WeakKeyDictionary()
        _PAIR_CACHE[group] = per
    ctx = per.get(subgroup)
    if ctx is None:
        if not subgroup.is_subgroup_of(group):
            raise UsageError("second group is not a subgroup of the first")
        ctx = {}
        per[subgroup] = ctx
    return ctx


def _fixed_harmonics(ctx, group, subgroup, space) -> GradedBasis:
    key = ("fixed", space)
    if key not in ctx:
        ctx[key] = fixed_point_basis(harmonic_basis(group, space=space),
                                     subgroup)
    return ctx[key]


def _graded_coords(basis: GradedBasis, poly: MPoly, outside: str):
    """poly's coordinates on an echelon graded basis as sorted (degree,
    coordinates) pairs; UsageError(outside) when poly lies outside its
    span."""
    if poly.nvars != basis.nvars or poly.space != basis.space:
        raise UsageError(outside)
    out = []
    for d, part in by_degree(poly):
        monos, ech, pivots = basis.piece(d)
        coords = echelon_coordinates(ech, pivots, part.coeff_vector(monos))
        if coords is None:
            raise UsageError(outside)
        out.append((d, coords))
    return out


def xi_apply(group: ReflectionGroup, subgroup: ReflectionGroup,
             hprime: MPoly, k: MPoly) -> MPoly:
    """The harmonic part of hprime*k in the big group's harmonic space.

    hprime must lie in the subgroup's harmonic space and k in the
    subgroup-fixed part of the big group's harmonics, both checked against
    the stored echelon bases.  The map is bilinear, so the image is read
    off the coordinate matrices of _mu: sum over bidegrees (i, j) of
    (c_i(hprime) (x) c_j(k)) M_ij on the H(G) basis of degree i + j, with
    no polynomial product and no projection.
    """
    ctx = _pair_ctx(group, subgroup)
    space = hprime.space
    if k.space != space:
        raise UsageError("tensor factors live in different variable sides")
    h_parts = _graded_coords(harmonic_basis(subgroup, space=space), hprime,
                             _NOT_SUB_HARMONIC)
    k_parts = _graded_coords(_fixed_harmonics(ctx, group, subgroup, space), k,
                             _NOT_FIXED_HARMONIC)
    return _image(ctx, group, subgroup, space, h_parts, k_parts)


def _image(ctx, group, subgroup, space, h_parts, k_parts) -> MPoly:
    """The image of h' (x) k given the factors' _graded_coords: the sum
    over bidegrees (i, j) of (c_i(h') (x) c_j(k)) M_ij, as a polynomial."""
    bigH = harmonic_basis(group, space=space)
    image = {}
    for i, ch in h_parts:
        for j, ck in k_parts:
            block = _mu_block(ctx, group, subgroup, space, i, j)
            image[i + j] = vec_mat(
                kron_vec(ch, ck), block,
                image.get(i + j, [_ZERO] * bigH.dim(i + j)))
    out = MPoly.zero(space, group.dim)
    for d, coords in image.items():
        monos, vecs, _ = bigH.piece(d)
        out = out + MPoly.from_vector(
            space, monos, vec_mat(coords, vecs, [_ZERO] * len(monos)))
    return out


def _mu_block(ctx, group, subgroup, space, i, j):
    """The coordinate matrix M_ij of the map on the basis tensors of
    bidegree (i, j) on one variable side, built on first use and kept in
    the pair context: row a * dim K_j + b holds the coordinates on H(G)
    in degree i + j of the harmonic part of h'_a * k_b, one Gram row each,
    so no harmonic polynomial is built.  The factors are the basis
    polynomials, so the membership checks of xi_apply are skipped."""
    blocks = ctx.setdefault(("mu", space), {})
    block = blocks.get((i, j))
    if block is None:
        subH = harmonic_basis(subgroup, space=space)
        fixed = _fixed_harmonics(ctx, group, subgroup, space)
        block = blocks[(i, j)] = [
            _harmonic_coords(group, i + j, hp * k)
            for hp in subH.basis(i) for k in fixed.basis(j)]
    return block


def _mu(ctx, group, subgroup):
    """Every contravariant block M_ij as {(deg h', deg k): M}, degrees
    ascending."""
    subH = harmonic_basis(subgroup)
    fixed = _fixed_harmonics(ctx, group, subgroup, CONTRAVARIANT)
    return {(i, j): _mu_block(ctx, group, subgroup, CONTRAVARIANT, i, j)
            for i in sorted(subH.degrees) for j in sorted(fixed.degrees)}


class FactorisationReport:
    """Outcome of the exhaustive basis-tensor check for one subgroup pair."""

    def __init__(self, group_name, subgroup_name, degrees, sub_degrees,
                 bidegree_ranks, graded, bijective, dim_identity,
                 poincare_lhs, poincare_rhs, equivariance_checks,
                 dual_scalars):
        self.group_name = group_name
        self.subgroup_name = subgroup_name
        self.degrees = list(degrees)
        self.sub_degrees = list(sub_degrees)
        self.bidegree_ranks = dict(bidegree_ranks)
        self.graded = dict(graded)
        self.bijective = bijective
        self.dim_identity = dim_identity
        self.poincare_lhs = poincare_lhs
        self.poincare_rhs = poincare_rhs
        self.equivariance_checks = list(equivariance_checks)
        self.dual_scalars = list(dual_scalars)

    @property
    def poincare_equal(self) -> bool:
        return self.poincare_lhs == self.poincare_rhs

    def to_json(self):
        return {
            "group": self.group_name,
            "subgroup": self.subgroup_name,
            "degrees": self.degrees,
            "subgroup_degrees": self.sub_degrees,
            "bidegree_ranks": {"%d,%d" % k: v
                               for k, v in sorted(self.bidegree_ranks.items())},
            "graded": {str(d): v for d, v in sorted(self.graded.items())},
            "bijective": self.bijective,
            "dim_identity": self.dim_identity,
            "poincare_lhs": self.poincare_lhs.to_json(),
            "poincare_rhs": self.poincare_rhs.to_json(),
            "poincare_equal": self.poincare_equal,
            "equivariance": [{"element": lbl, "passed": ok}
                             for lbl, ok in self.equivariance_checks],
            "dual_scalars": self.dual_scalars,
        }

    def __repr__(self):
        return ("FactorisationReport(%s <= %s, bijective=%s)"
                % (self.subgroup_name or "?", self.group_name or "?",
                   self.bijective))


def _group_label(group: ReflectionGroup) -> str:
    return group.name or "dim%d-order%d" % (group.dim, group.order)


def poincare_factorisation(group, subgroup):
    """(Poin of H(G), Poin of H(G') times Poin of the fixed space)."""
    ctx = _pair_ctx(group, subgroup)
    lhs = harmonic_poincare(group)
    rhs = harmonic_poincare(subgroup) * _fixed_harmonics(
        ctx, group, subgroup, CONTRAVARIANT).poincare()
    return lhs, rhs


def degree_divisibility(group, subgroup) -> dict:
    """Divisibility of the two harmonic Poincare polynomials plus the
    per-n comparison of degree-divisor counts."""
    _pair_ctx(group, subgroup)
    degs = invariant_degrees(group)
    sub_degs = invariant_degrees(subgroup)
    poin = harmonic_poincare(group)
    sub_poin = harmonic_poincare(subgroup)
    divides = sub_poin.divides(poin)
    quotient = poin.exact_div(sub_poin) if divides else None
    counts = []
    counts_ok = True
    for n in range(1, max(degs) + 1):
        c_sub = sum(1 for d in sub_degs if d % n == 0)
        c_big = sum(1 for d in degs if d % n == 0)
        counts.append((n, c_sub, c_big))
        if c_sub > c_big:
            counts_ok = False
    return {
        "divides": divides,
        "quotient": quotient,
        "counts": counts,
        "counts_ok": counts_ok,
        "ok": divides and counts_ok,
    }


def d_map(group: ReflectionGroup, h: MPoly) -> MPoly:
    """Differentiate the skew product by a covariant harmonic; degree
    reversing, N - deg(h)."""
    if h.space != COVARIANT:
        raise UsageError("argument of the duality map must be covariant")
    if h.nvars != group.dim:
        raise UsageError("variable count does not match the group")
    return diff_apply(h, group.skew_contravariant())


def e_map(group: ReflectionGroup, subgroup: ReflectionGroup,
          a: MPoly) -> MPoly:
    """Multiply by the subgroup's covariant skew product, then apply d_map;
    lands in the subgroup-fixed harmonics of the big group."""
    _pair_ctx(group, subgroup)
    if a.space != COVARIANT:
        raise UsageError("argument of the duality map must be covariant")
    return d_map(group, subgroup.skew_covariant() * a)


def _collinear_scalar(lhs: MPoly, rhs: MPoly):
    if rhs.is_zero():
        return CycloScalar.rational(1) if lhs.is_zero() else None
    if lhs.is_zero():
        return None
    exps, lead = rhs.sorted_terms()[0]
    num = lhs.terms.get(exps)
    if num is None:
        return None
    c = num * lead.inv()
    return c if lhs == rhs.scale(c) else None


def _dual_h(subgroup, h):
    """The h side of a dual pair: the coordinates of the subgroup harmonic
    D_h of the subgroup's skew product."""
    return _graded_coords(harmonic_basis(subgroup),
                          diff_apply(h, subgroup.skew_contravariant()),
                          _NOT_SUB_HARMONIC)


def _dual_a(ctx, group, subgroup, a):
    """The a side of a dual pair: d_map(a) and the coordinates of
    e_map(a) on the subgroup-fixed harmonics."""
    fixed = _fixed_harmonics(ctx, group, subgroup, CONTRAVARIANT)
    return d_map(group, a), _graded_coords(fixed, e_map(group, subgroup, a),
                                           _NOT_FIXED_HARMONIC)


def _dual_pair(ctx, group, subgroup, h, h_parts, a_side):
    """(lhs, rhs, scalar) of xi_dual_compare from the factors' _dual_h and
    _dual_a.  rhs = D_h d_map(a) is D_(ah) of the skew product, since
    constant-coefficient operators commute."""
    d_a, k_parts = a_side
    lhs = _image(ctx, group, subgroup, CONTRAVARIANT, h_parts, k_parts)
    rhs = diff_apply(h, d_a)
    return lhs, rhs, _collinear_scalar(lhs, rhs)


def xi_dual_compare(group, subgroup, h: MPoly, a: MPoly):
    """Evaluate the factorisation map and its differentiation realisation
    on the pair (h, a); returns (lhs, rhs, scalar with lhs == scalar*rhs,
    or None when the two are not collinear).  lhs is the image of
    D_h(skew product of G') (x) e_map(a), rhs is D_(ah) of the skew
    product of G."""
    ctx = _pair_ctx(group, subgroup)
    return _dual_pair(ctx, group, subgroup, h, _dual_h(subgroup, h),
                      _dual_a(ctx, group, subgroup, a))


def equivariance_check(group, subgroup, n_mat) -> bool:
    """Whether the factorisation map commutes with a joint normalizer n of
    the pair: (A'_i (x) A^fix_j) M_ij == M_ij A_{i+j} for every bidegree,
    the A the action matrices of n on H(G'), H(G)^{G'} and H(G).  The map
    is bilinear, so this is its check on every basis tensor."""
    ctx = _pair_ctx(group, subgroup)
    mat = coerce_matrix(n_mat)
    if len(mat) != group.dim or any(len(r) != group.dim for r in mat):
        raise UsageError("normalizer matrix has the wrong size")
    inv = mat_inv(mat)
    if not (group.is_normalized_by(mat, inv)
            and subgroup.is_normalized_by(mat, inv)):
        raise UsageError("matrix does not normalize both groups")
    subH = harmonic_basis(subgroup)
    fixed = _fixed_harmonics(ctx, group, subgroup, CONTRAVARIANT)
    bigH = harmonic_basis(group)
    mu = _mu(ctx, group, subgroup)
    # all three bases are on S(V*), where n acts by substituting n^-1
    sub_act = {i: substituted_action(subH, i, inv) for i in subH.degrees}
    fix_act = {j: substituted_action(fixed, j, inv) for j in fixed.degrees}
    big_act = {d: substituted_action(bigH, d, inv)
               for d in {i + j for i, j in mu}}
    for (i, j), m in mu.items():
        if kron_apply(sub_act[i], fix_act[j], m) != \
                mat_mul(m, big_act[i + j]):
            return False
    return True


def _builtin_normalizers(group, subgroup):
    """Coordinate permutations and the central sign that normalize both
    groups; identity excluded, at most six in all.  The normaliser test
    takes the transpose as a permutation matrix's inverse, so no
    elimination runs here."""
    one = CycloScalar.rational(1)
    zero = CycloScalar.rational(0)
    nv = group.dim
    found = []
    neg = [[-one if i == j else zero for j in range(nv)] for i in range(nv)]
    found.append(("-id", neg))
    if nv <= 4:
        for perm in itertools.permutations(range(nv)):
            if all(perm[i] == i for i in range(nv)):
                continue
            mat = [[one if perm[i] == j else zero for j in range(nv)]
                   for i in range(nv)]
            inv = [list(col) for col in zip(*mat)]
            if group.is_normalized_by(mat, inv) and \
                    subgroup.is_normalized_by(mat, inv):
                found.append(("perm%s" % (perm,), mat))
            if len(found) >= 6:
                break
    return found


def verify_factorisation(group: ReflectionGroup, subgroup: ReflectionGroup
                         ) -> FactorisationReport:
    """Run the full basis-tensor verification for one subgroup pair.

    The rank blocks and the equivariance checks read the coordinate
    matrices of the map, one evaluation per basis tensor.  Failures land
    in the report, not in exceptions: rank defects clear the bijective
    flag, a Poincare mismatch shows in the two polynomials, and each
    equivariance or duality entry carries its own outcome.
    """
    ctx = _pair_ctx(group, subgroup)
    fixed = _fixed_harmonics(ctx, group, subgroup, CONTRAVARIANT)
    bigH = harmonic_basis(group)
    dim_identity = subgroup.order * fixed.dimension() == group.order

    bidegree_ranks = {}
    rows_by_total = {}
    for (i, j), block in _mu(ctx, group, subgroup).items():
        ech, _ = rref(block)
        bidegree_ranks[(i, j)] = {"rows": len(block), "rank": len(ech)}
        rows_by_total.setdefault(i + j, []).extend(block)

    graded = {}
    for n in range(bigH.max_degree + 1):
        rows = rows_by_total.get(n, [])
        ech, _ = rref(rows)
        dim_h = bigH.dim(n)
        graded[n] = {"dim": dim_h, "rows": len(rows), "rank": len(ech),
                     "full": len(rows) == dim_h == len(ech)}
    bijective = all(info["full"] for info in graded.values())

    poin_lhs, poin_rhs = poincare_factorisation(group, subgroup)

    equivariance = [(label, equivariance_check(group, subgroup, mat))
                    for label, mat in _builtin_normalizers(group, subgroup)]

    subHc = harmonic_basis(subgroup, space=COVARIANT)
    fixedc = _fixed_harmonics(ctx, group, subgroup, COVARIANT)
    a_sides = [(da, ai, _dual_a(ctx, group, subgroup, a))
               for da in sorted(fixedc.degrees)
               for ai, a in enumerate(fixedc.basis(da))]
    dual_scalars = []
    for dh in sorted(subHc.degrees):
        for hi, h in enumerate(subHc.basis(dh)):
            h_parts = _dual_h(subgroup, h)
            for da, ai, a_side in a_sides:
                _, _, scal = _dual_pair(ctx, group, subgroup, h, h_parts,
                                        a_side)
                dual_scalars.append({
                    "h_degree": dh, "h_index": hi,
                    "a_degree": da, "a_index": ai,
                    "collinear": scal is not None,
                    "scalar": scal.to_json() if scal is not None
                    else None,
                })

    return FactorisationReport(
        _group_label(group), _group_label(subgroup),
        invariant_degrees(group), invariant_degrees(subgroup),
        bidegree_ranks, graded, bijective, dim_identity,
        poin_lhs, poin_rhs, equivariance, dual_scalars)
