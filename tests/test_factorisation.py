import pytest

from reflharm import factorisation
from reflharm.errors import UsageError
from reflharm.factorisation import (
    FactorisationReport,
    d_map,
    degree_divisibility,
    e_map,
    equivariance_check,
    poincare_factorisation,
    verify_factorisation,
    xi_apply,
    xi_dual_compare,
)
from reflharm.groups import catalog
from reflharm.mpoly import CONTRAVARIANT, COVARIANT, MPoly
from reflharm.scalars import CycloScalar, RatPoly, qq

ONE = CycloScalar.rational(1)


def P(nvars, *terms, space=CONTRAVARIANT):
    return MPoly(space, nvars,
                 {tuple(e): CycloScalar.coerce(c) for e, c in terms})


def b2_pair():
    b2 = catalog("weyl:B:2")
    sub = b2.subgroup_from_matrices([
        [[-ONE, ONE * 0], [ONE * 0, ONE]],
        [[ONE, ONE * 0], [ONE * 0, -ONE]],
    ])
    return b2, sub


def trivial_subgroup(group):
    ident = [[ONE if i == j else ONE * 0 for j in range(group.dim)]
             for i in range(group.dim)]
    return group.subgroup_from_matrices([ident])


def test_xi_apply_b2():
    b2, sub = b2_pair()
    x = P(2, ((1, 0), 1))
    xy = P(2, ((1, 1), 1))
    k = P(2, ((2, 0), 1), ((0, 2), -1))
    assert xi_apply(b2, sub, x, k) == P(2, ((3, 0), qq("1/2")),
                                        ((1, 2), qq("-3/2")))
    assert xi_apply(b2, sub, xy, k) == P(2, ((3, 1), 1), ((1, 3), -1))


def test_xi_apply_membership_errors():
    b2, sub = b2_pair()
    k = P(2, ((2, 0), 1), ((0, 2), -1))
    with pytest.raises(UsageError):
        xi_apply(b2, sub, P(2, ((2, 0), 1)), k)       # X^2 not sub-harmonic
    with pytest.raises(UsageError):
        xi_apply(b2, sub, P(2, ((1, 0), 1)), P(2, ((1, 1), 1)))  # XY not fixed
    with pytest.raises(UsageError):
        xi_apply(b2, sub, P(2, ((1, 0), 1), space=COVARIANT), k)


def test_xi_apply_cyclic_is_multiplication():
    mu6 = catalog("cyclic:6")
    mu2 = mu6.subgroup_from_matrices([[[-ONE]]])
    for a in range(2):
        for b in range(3):
            h = P(1, ((a,), 1))
            k = P(1, ((2 * b,), 1))
            assert xi_apply(mu6, mu2, h, k) == P(1, ((a + 2 * b,), 1))


def test_verify_factorisation_b2():
    b2, sub = b2_pair()
    rep = verify_factorisation(b2, sub)
    assert rep.bijective
    assert rep.dim_identity
    assert rep.poincare_equal
    assert rep.degrees == [2, 4] and rep.sub_degrees == [2, 2]
    for info in rep.graded.values():
        assert info["full"]
    for info in rep.bidegree_ranks.values():
        assert info["rows"] == info["rank"]
    assert all(ok for _, ok in rep.equivariance_checks)
    assert len(rep.equivariance_checks) >= 2   # -id plus the coordinate swap
    assert all(e["collinear"] for e in rep.dual_scalars)
    data = rep.to_json()
    assert data["bijective"] and data["poincare_equal"]
    assert "0,2" in data["bidegree_ranks"]


def test_verify_factorisation_evaluates_each_tensor_once(monkeypatch):
    # |G| basis tensors, |G| per normaliser candidate, |G| dual pairs
    b2, sub = b2_pair()
    calls = []
    real = factorisation.project_to_H

    def counting(group, poly):
        calls.append(poly)
        return real(group, poly)

    monkeypatch.setattr(factorisation, "project_to_H", counting)
    rep = verify_factorisation(b2, sub)
    assert len(calls) == b2.order * (2 + len(rep.equivariance_checks))


def test_verify_factorisation_extreme_subgroups():
    b2, _ = b2_pair()
    rep_full = verify_factorisation(b2, b2)
    assert rep_full.bijective and rep_full.dim_identity
    rep_triv = verify_factorisation(b2, trivial_subgroup(b2))
    assert rep_triv.bijective and rep_triv.dim_identity
    assert rep_triv.poincare_equal


def test_poincare_factorisation():
    b2, sub = b2_pair()
    lhs, rhs = poincare_factorisation(b2, sub)
    assert lhs == RatPoly([1, 2, 2, 2, 1])
    assert rhs == lhs
    mu6 = catalog("cyclic:6")
    mu2 = mu6.subgroup_from_matrices([[[-ONE]]])
    lhs, rhs = poincare_factorisation(mu6, mu2)
    assert lhs == RatPoly([1] * 6) and rhs == lhs
    lhs, rhs = poincare_factorisation(b2, b2)
    assert lhs == rhs


def test_degree_divisibility():
    b2, sub = b2_pair()
    rep = degree_divisibility(b2, sub)
    assert rep["ok"] and rep["divides"]
    assert rep["quotient"] == RatPoly([1, 0, 1])
    assert (4, 0, 1) in rep["counts"]
    rep = degree_divisibility(b2, b2)
    assert rep["ok"] and rep["quotient"] == RatPoly([1])
    assert all(a == b for _, a, b in rep["counts"])


def test_d_map():
    b2, _ = b2_pair()
    one_cov = MPoly.constant(COVARIANT, 2, 1)
    assert d_map(b2, one_cov) == b2.skew_contravariant()
    assert d_map(b2, P(2, ((1, 1), 1), space=COVARIANT)) == \
        P(2, ((2, 0), 3), ((0, 2), -3))
    mu5 = catalog("cyclic:5")
    fact = 1
    for k in range(5):
        # (e-1)!/(e-1-k)! X^{e-1-k}
        assert d_map(mu5, P(1, ((k,), 1), space=COVARIANT)) == \
            P(1, ((4 - k,), fact))
        fact *= 4 - k
    with pytest.raises(UsageError):
        d_map(b2, P(2, ((1, 0), 1)))


def test_d_map_is_degree_reversing_bijection():
    from reflharm.harmonics import harmonic_basis
    from reflharm.linalg import rref
    from reflharm.mpoly import monomials_of_degree

    b2, _ = b2_pair()
    H = harmonic_basis(b2, "perp", COVARIANT)
    N = b2.skew_degree()
    for d in sorted(H.degrees):
        images = [d_map(b2, h) for h in H.basis(d)]
        assert all(im.homogeneous_degree() == N - d for im in images)
        monos = monomials_of_degree(2, N - d)
        ech, _ = rref([im.coeff_vector(monos) for im in images])
        assert len(ech) == len(images) == H.dim(d)


def test_e_map():
    b2, sub = b2_pair()
    one_cov = MPoly.constant(COVARIANT, 2, 1)
    assert e_map(b2, sub, one_cov) == P(2, ((2, 0), 3), ((0, 2), -3))
    mu6 = catalog("cyclic:6")
    mu2 = mu6.subgroup_from_matrices([[[-ONE]]])
    assert e_map(mu6, mu2, MPoly.constant(COVARIANT, 1, 1)) == \
        P(1, ((4,), 5))
    triv = trivial_subgroup(b2)
    a = P(2, ((1, 1), 1), space=COVARIANT)
    assert e_map(b2, triv, a) == d_map(b2, a)


def test_xi_dual_compare_b2():
    b2, sub = b2_pair()
    one_cov = MPoly.constant(COVARIANT, 2, 1)
    h_xy = P(2, ((1, 1), 1), space=COVARIANT)
    lhs, rhs, scal = xi_dual_compare(b2, sub, h_xy, one_cov)
    assert lhs == rhs == P(2, ((2, 0), 3), ((0, 2), -3))
    assert scal == ONE

    h_x = P(2, ((1, 0), 1), space=COVARIANT)
    lhs, rhs, scal = xi_dual_compare(b2, sub, h_x, one_cov)
    assert rhs == P(2, ((2, 1), 3), ((0, 3), -1))
    assert scal == CycloScalar.rational(qq("3/2"))
    assert lhs == rhs.scale(scal)

    lhs, rhs, scal = xi_dual_compare(b2, sub, one_cov, one_cov)
    assert rhs == b2.skew_contravariant()
    assert scal == CycloScalar.rational(3)


def test_equivariance_check():
    b2, sub = b2_pair()
    swap = [[0, 1], [1, 0]]
    assert equivariance_check(b2, sub, swap)
    ident = [[1, 0], [0, 1]]
    assert equivariance_check(b2, sub, ident)
    neg = [[-1, 0], [0, -1]]
    assert equivariance_check(b2, sub, neg)
    with pytest.raises(UsageError):
        equivariance_check(b2, sub, [[1, 1], [0, 1]])
    # the explicit swapped instance
    y = P(2, ((0, 1), 1))
    k = P(2, ((2, 0), -1), ((0, 2), 1))
    assert xi_apply(b2, sub, y, k) == P(2, ((2, 1), qq("-3/2")),
                                        ((0, 3), qq("1/2")))


def test_report_repr_and_label():
    b2, sub = b2_pair()
    rep = verify_factorisation(b2, sub)
    assert isinstance(rep, FactorisationReport)
    assert "bijective=True" in repr(rep)
