"""Tensor factorisation of harmonics along a reflection subgroup.

The central map multiplies a subgroup harmonic by a subgroup-fixed harmonic
of the big group and projects the product back onto the harmonic space.
Degree by degree this assembles to a linear isomorphism

    H(G') (x) H(G)^{G'}  ->  H(G)

which verify_factorisation checks exhaustively on basis tensors, together
with the dimension identity dim H(G)^{G'} = |G|/|G'| and the matching
Poincare factorisation.  A dual route realises the same map through
differentiation of the skew product; xi_dual_compare keeps both routes
separate and records the proportionality scalar between them per basis
pair instead of forcing equality, since the normalisations here make some
pairs differ by a nonzero constant.
"""

from __future__ import annotations

import itertools
import weakref

from .errors import UsageError
from .groups import ReflectionGroup
from .harmonics import (
    GradedBasis,
    by_degree,
    fixed_point_basis,
    harmonic_basis,
    harmonic_poincare,
    invariant_degrees,
    project_to_H,
)
from .linalg import echelon_coordinates, mat_inv, rref
from .mpoly import (
    CONTRAVARIANT,
    COVARIANT,
    MPoly,
    coerce_matrix,
    diff_apply,
    monomials_of_degree,
)
from .scalars import CycloScalar

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


def _graded_member(basis: GradedBasis, poly: MPoly) -> bool:
    """Whether poly lies in the span of an echelon graded basis, read
    degree by degree at the pivot columns of each piece."""
    if poly.nvars != basis.nvars or poly.space != basis.space:
        return False
    for d, part in by_degree(poly):
        monos, ech, pivots = basis.piece(d)
        if echelon_coordinates(ech, pivots,
                               part.coeff_vector(monos)) is None:
            return False
    return True


def xi_apply(group: ReflectionGroup, subgroup: ReflectionGroup,
             hprime: MPoly, k: MPoly) -> MPoly:
    """Project hprime*k onto the harmonic space of the big group.

    hprime must lie in the subgroup's harmonic space and k in the
    subgroup-fixed part of the big group's harmonics, both checked against
    the stored echelon bases.
    """
    ctx = _pair_ctx(group, subgroup)
    space = hprime.space
    if k.space != space:
        raise UsageError("tensor factors live in different variable sides")
    if not _graded_member(harmonic_basis(subgroup, space=space), hprime):
        raise UsageError("first factor is not a subgroup harmonic")
    if not _graded_member(_fixed_harmonics(ctx, group, subgroup, space), k):
        raise UsageError("second factor is not a subgroup-fixed harmonic")
    h, _ = project_to_H(group, hprime * k)
    return h


def _tensor_images(ctx, group, subgroup):
    """xi_apply on every contravariant basis tensor h' (x) k, once per pair:
    {(deg h', deg k): images, h' the outer index}, degrees ascending."""
    if "images" not in ctx:
        subH = harmonic_basis(subgroup)
        fixed = _fixed_harmonics(ctx, group, subgroup, CONTRAVARIANT)
        ctx["images"] = {
            (i, j): [xi_apply(group, subgroup, hp, k)
                     for hp in subH.basis(i) for k in fixed.basis(j)]
            for i in sorted(subH.degrees) for j in sorted(fixed.degrees)}
    return ctx["images"]


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


def xi_dual_compare(group, subgroup, h: MPoly, a: MPoly):
    """Evaluate the factorisation map and its differentiation realisation
    on the pair (h, a); returns (lhs, rhs, scalar with lhs == scalar*rhs,
    or None when the two are not collinear)."""
    H = diff_apply(h, subgroup.skew_contravariant())
    K = e_map(group, subgroup, a)
    lhs = xi_apply(group, subgroup, H, K)
    rhs = diff_apply(a * h, group.skew_contravariant())
    return lhs, rhs, _collinear_scalar(lhs, rhs)


def equivariance_check(group, subgroup, n_mat) -> bool:
    """Whether the factorisation map commutes with a joint normalizer n of
    the pair: xi(n.h' (x) n.k) = n.xi(h' (x) k) on every basis tensor."""
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
    moved_h = {i: [hp.act(mat, inv) for hp in subH.basis(i)]
               for i in subH.degrees}
    moved_k = {j: [k.act(mat, inv) for k in fixed.basis(j)]
               for j in fixed.degrees}
    for (i, j), images in _tensor_images(ctx, group, subgroup).items():
        tensors = itertools.product(moved_h[i], moved_k[j])
        for (hp_n, k_n), image in zip(tensors, images):
            if xi_apply(group, subgroup, hp_n, k_n) != image.act(mat, inv):
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

    The rank blocks and the equivariance checks read one evaluation of the
    map per basis tensor.  Failures land in the report, not in exceptions:
    rank defects clear the bijective flag, a Poincare mismatch shows in the
    two polynomials, and each equivariance or duality entry carries its own
    outcome.
    """
    ctx = _pair_ctx(group, subgroup)
    fixed = _fixed_harmonics(ctx, group, subgroup, CONTRAVARIANT)
    bigH = harmonic_basis(group)
    dim_identity = subgroup.order * fixed.dimension() == group.order

    bidegree_ranks = {}
    rows_by_total = {}
    for (i, j), images in _tensor_images(ctx, group, subgroup).items():
        monos = monomials_of_degree(group.dim, i + j)
        block = [image.coeff_vector(monos) for image in images]
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

    dual_scalars = []
    subHc = harmonic_basis(subgroup, space=COVARIANT)
    fixedc = _fixed_harmonics(ctx, group, subgroup, COVARIANT)
    for dh in sorted(subHc.degrees):
        for hi, h in enumerate(subHc.basis(dh)):
            for da in sorted(fixedc.degrees):
                for ai, a in enumerate(fixedc.basis(da)):
                    _, _, scal = xi_dual_compare(group, subgroup, h, a)
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
